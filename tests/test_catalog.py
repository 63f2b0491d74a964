"""Descriptors, parameter maps, Hamiltonian evaluation, vector fields."""

import pytest

from painlab.algebra import time_derivative
from painlab.catalog import (MergedParams, PhaseState, constraint_rate,
                             derive_alphas, eval_h, flow_rhs, flow_states,
                             full_params, list_systems, lookup, vector_field)
from painlab.degenerations import RULES
from painlab.integrator import integrate_two_time
from painlab.fuchsian import accessory_count, parse_spectral_type
from painlab.rigid import RIGID_CASES, lift_solution
from painlab.sampling import (rational_complex, rng_from_seed, sample_params,
                              sample_state)
from painlab.verify import constrained_rigid_params


def test_lookup_dimensions():
    assert (lookup("11,11,11,11").n_times, lookup("11,11,11,11").n_pairs) == (1, 1)
    assert (lookup("21,21,21,21,111").n_times,
            lookup("21,21,21,21,111").n_pairs) == (2, 3)
    assert (lookup("51,33,33,111111").n_times,
            lookup("51,33,33,111111").n_pairs) == (1, 3)


def test_lookup_unknown_id():
    with pytest.raises(KeyError):
        lookup("99,99")


def test_catalog_size():
    assert len(list_systems()) == 17


def test_partition_count_matches_times():
    for sid in list_systems():
        d = lookup(sid)
        assert len(parse_spectral_type(sid)) == d.n_times + 3


def test_accessory_count_equals_phase_dimension():
    for sid in list_systems():
        d = lookup(sid)
        assert accessory_count(sid) == 2 * d.n_pairs


def test_hvi_alpha_relation():
    rng = rng_from_seed(2)
    par = sample_params("11,11,11,11", rng)
    al = derive_alphas("11,11,11,11", par)
    total = al["alpha0"] + al["alpha1"] + 2 * al["alpha2"] + al["alpha3"] \
        + al["alpha4"]
    assert abs(total - 1) < 1e-12


def test_alphas_at_zero_exponents():
    par = {n: 0.0 for n in lookup("21,21,21,21,111").param_names}
    al = derive_alphas("21,21,21,21,111", par)
    assert al["alpha0"] == 0 and al["alpha4"] == 1 and al["alpha5"] == -1
    assert al["alpha1"] == al["alpha2"] == al["alpha3"] == 0


def test_fuchs_relation_solved_exactly():
    rng = rng_from_seed(3)
    for sid in list_systems():
        for _ in range(5):
            par = sample_params(sid, rng)
            assert abs(lookup(sid).fuchs_relation(par)) < 1e-12
            # the printed alpha relation at the derived alpha values
            relation = lookup(sid).alpha_relation
            if relation is not None:
                alphas = derive_alphas(sid, par)
                assert abs(relation(alphas)) < 1e-10


def _catalog_forms():
    """Every LinearForm of the catalog: trace relations, alpha relations
    and alpha maps."""
    for sid in list_systems():
        desc = lookup(sid)
        yield desc.fuchs_relation
        if desc.alpha_relation is not None:
            yield desc.alpha_relation
        yield from (desc.alpha_map or {}).values()


def test_linear_forms_repeat_the_generator_forms_bit_for_bit():
    # the generator forms, as reference: the same products, summed in the
    # same order from int 0
    def ref_call(form, values):
        return sum(c * values[name] for name, c in form.coeffs.items()) \
            + form.const

    def ref_solve_for(form, name, values):
        c = form.coeffs[name]
        rest = sum(ck * values[k] for k, ck in form.coeffs.items()
                   if k != name)
        return -(rest + form.const) / c

    def bits(z):
        return z.real.hex(), z.imag.hex()

    rng = rng_from_seed(29)
    forms = list(_catalog_forms())
    assert len(forms) > len(list_systems())
    for form in forms:
        for _ in range(100):
            values = {name: rational_complex(rng) for name in form.coeffs}
            assert bits(form(values)) == bits(ref_call(form, values))
            for name in form.coeffs:
                assert bits(form.solve_for(name, values)) \
                    == bits(ref_solve_for(form, name, values))


def test_fuchs_violation_raises():
    par = dict.fromkeys(lookup("21,21,21,21,111").param_names, 0.5)
    with pytest.raises(ValueError):
        derive_alphas("21,21,21,21,111", par)


def test_parameters_merged_for_the_system_come_back_as_they_are():
    sid = "21,21,21,21,111"
    merged = full_params(sid, sample_params(sid, rng_from_seed(5)))
    assert isinstance(merged, MergedParams) and merged.sid == sid
    assert full_params(sid, merged) is merged
    assert derive_alphas(sid, merged) == {n: merged[n]
                                          for n in lookup(sid).alpha_names}
    with pytest.raises(TypeError, match="read-only"):
        merged["alpha0"] = 0.0


def test_merged_parameters_are_derived_again_for_another_system():
    # a degeneration rule's big system merges the small one's parameters
    rule = RULES["p3-and-last-exponent-zero"]
    big = full_params(rule.big, rule.draw_params(rng_from_seed(6)))
    small = full_params(rule.small, big)
    assert small.sid == rule.small and small is not big
    assert all(small[n] == big[n] for n in lookup(rule.small).alpha_names)
    # and checked again: this system's trace relation does not hold there
    with pytest.raises(ValueError, match="trace relation violated"):
        full_params("22,22,22,211", small)


def test_a_violated_trace_relation_on_a_plain_dict_still_raises():
    sid = "21,21,21,21,111"
    par = dict(full_params(sid, sample_params(sid, rng_from_seed(7))))
    par["theta1"] += 0.5
    with pytest.raises(ValueError, match="trace relation violated"):
        full_params(sid, par)
    with pytest.raises(ValueError, match="trace relation violated"):
        eval_h(sid, 1, par, sample_state(sid, rng_from_seed(7)))


def test_derive_alphas_is_linear_in_homogeneous_part():
    rng = rng_from_seed(4)
    for sid in ("21,21,21,21,111", "31,22,211,1111", "51,33,222,222"):
        par = sample_params(sid, rng)
        zero = {k: 0.0 for k in par}
        base = derive_alphas(sid, zero)
        a1 = derive_alphas(sid, par)
        a2 = derive_alphas(sid, {k: 2 * v for k, v in par.items()})
        for name in a1:
            hom1 = a1[name] - base[name]
            hom2 = a2[name] - base[name]
            assert abs(hom2 - 2 * hom1) < 1e-12 * (1 + abs(hom2))


def test_hvi_vanishes_at_origin_with_zero_alphas():
    par = {"alpha0": 0.0, "alpha1": 0.0, "alpha2": 0.5, "alpha3": 0.0,
           "alpha4": 0.0}
    st = PhaseState((0.0,), (0.7 - 0.2j,), (0.6 + 0.4j,))
    assert eval_h("11,11,11,11", 1, par, st) == 0
    dq, dp = vector_field("11,11,11,11", 1, par, st)
    assert abs(dq[0]) == 0


def test_trace_form_zero_case():
    # alpha2 = alpha5 = 0 and p = 0 makes the matrix P vanish
    par = {"alpha0": 0.3 + 0.1j, "alpha1": 0.2, "alpha2": 0.0,
           "alpha3": 0.5 - 0.1j, "alpha4": -0.0 - 0.0j, "alpha5": 0.0}
    par["alpha4"] = 1 - par["alpha0"] - par["alpha1"] - par["alpha3"]
    st = PhaseState((0.4, -0.7 + 0.2j), (0.0, 0.0), (1.7 + 0.3j,))
    assert abs(eval_h("22,22,22,211", 1, par, st)) < 1e-14


def test_time_collision_rejected():
    with pytest.raises(ValueError):
        PhaseState((0.1,) * 3, (0.1,) * 3, (1.0 + 0j, 0.5))
    with pytest.raises(ValueError):
        PhaseState((0.1,) * 3, (0.1,) * 3, (0.5, 0.5))
    # a NaN time compares false against the tolerance, wherever it sits
    nan = float("nan")
    for times in ((nan,), (nan, 0.5), (0.5, complex(0.0, nan))):
        with pytest.raises(ValueError, match="not finite"):
            PhaseState((0.1,) * 3, (0.1,) * 3, times)


def test_eval_h_validates_index():
    rng = rng_from_seed(6)
    par = sample_params("21,21,111,111", rng)
    st = sample_state("21,21,111,111", rng)
    with pytest.raises(ValueError):
        eval_h("21,21,111,111", 2, par, st)


def test_flow_rhs_validates_index():
    rng = rng_from_seed(6)
    par = sample_params("21,21,111,111", rng)
    for i in (0, 2):
        with pytest.raises(ValueError):
            flow_rhs("21,21,111,111", i, par, (1.7 + 0.6j,))


def test_vector_field_validates_index():
    sid = "11,11,11,11,11"
    rng = rng_from_seed(6)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.8 + 0.6j, -0.9 + 0.4j))
    for i in (0, 3):
        with pytest.raises(ValueError, match="time index"):
            vector_field(sid, i, par, st)


def test_vector_field_rejects_wrong_dimensions():
    # q and p of lengths 2 and 4 still sum to 2n = 6
    sid = "21,21,21,21,111"
    rng = rng_from_seed(6)
    par = sample_params(sid, rng)
    st = sample_state(sid, rng)
    odd = PhaseState(st.q[:2], st.q[2:] + st.p, st.t)
    with pytest.raises(ValueError, match=f"{sid}: state has wrong dim"):
        vector_field(sid, 1, par, odd)


def test_flow_rhs_rejects_wrong_number_of_times():
    sid = "21,21,111,111"
    par = sample_params(sid, rng_from_seed(6))
    with pytest.raises(ValueError, match=f"{sid}: 2 times given, 1 expected"):
        flow_rhs(sid, 1, par, (1.7 + 0.6j, -0.8 + 0.5j))


def test_flow_states_times_and_endpoint():
    sid = "11,11,11,11,11"
    rng = rng_from_seed(5)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.8 + 0.6j, -0.9 + 0.4j))
    end = st.t[1] + 0.1 + 0.05j
    states = flow_states(sid, 2, par, st, end, samples=(0.25, 0.5))
    assert [s.t[0] for s in states] == [st.t[0]] * 4
    assert [s.t[1] for s in states] == [
        st.t[1] + f * (end - st.t[1]) for f in (0.0, 0.25, 0.5)] + [end]
    assert states[0].q + states[0].p == st.q + st.p
    # the two-time route with a still first leg lands on the same state
    other = integrate_two_time(sid, par, st, 1, st.t[0], 2, end)
    assert other.t == states[-1].t
    assert max(abs(a - b) for a, b in zip(other.q + other.p,
                                          states[-1].q + states[-1].p)) < 1e-8


def test_state_dimension_checked():
    rng = rng_from_seed(7)
    par = sample_params("21,21,21,21,111", rng)
    st = sample_state("11,11,11,11,11", rng)
    with pytest.raises(ValueError):
        eval_h("21,21,21,21,111", 1, par, st)


def test_vector_field_matches_finite_differences_everywhere():
    rng = rng_from_seed(8)
    step = 1e-6
    for sid in list_systems():
        desc = lookup(sid)
        par = sample_params(sid, rng)
        st = sample_state(sid, rng)
        for i in range(1, desc.n_times + 1):
            dq, dp = vector_field(sid, i, par, st)
            ti = st.t[i - 1]
            scale = 1.0 / (ti * (ti - 1))
            for j in range(desc.n_pairs):
                p_plus = list(st.p)
                p_minus = list(st.p)
                p_plus[j] += step
                p_minus[j] -= step
                fd = (eval_h(sid, i, par, PhaseState(st.q, p_plus, st.t))
                      - eval_h(sid, i, par, PhaseState(st.q, p_minus, st.t))) \
                    / (2 * step) * scale
                assert abs(dq[j] - fd) <= 1e-6 * (1 + abs(dq[j]))


def test_hamiltonians_are_polynomial_in_phase_variables():
    # dual evaluation at q = p = 0 would raise if any formula divided by a
    # phase variable; only time-variable coefficients may sit in denominators
    from painlab.algebra import Dual
    from painlab.catalog import HAMILTONIANS

    rng = rng_from_seed(10)
    for sid in list_systems():
        desc = lookup(sid)
        par = sample_params(sid, rng)
        merged = full_params(sid, par)
        st = sample_state(sid, rng)
        n = desc.n_pairs
        zeros = tuple(Dual(0.0, (1.0,) * (2 * n)) for _ in range(n))
        for i in range(1, desc.n_times + 1):
            HAMILTONIANS[sid](i, merged, zeros, zeros, st.t)


def test_specialization_of_headline_onto_five_point_system():
    rng = rng_from_seed(9)
    for _ in range(10):
        par = sample_params("21,21,21,21,111", rng, fixed={"rho3": 0.0})
        st = sample_state("21,21,21,21,111", rng)
        st = PhaseState(st.q, (st.p[0], st.p[1], 0.0), st.t)
        al = derive_alphas("21,21,21,21,111", par)
        small = PhaseState(st.q[:2], st.p[:2], st.t)
        for i in (1, 2):
            hb = eval_h("21,21,21,21,111", i, par, st)
            hs = eval_h("11,11,11,11,11", i, al, small)
            assert abs(hb - hs) < 1e-10


def reference_rate(sid, params, state, constraints):
    """Max |dg/dt_i| by one time_derivative pass per flow and constraint."""
    n = lookup(sid).n_pairs
    par = full_params(sid, params)
    worst = 0.0
    for i in range(1, lookup(sid).n_times + 1):
        dq, dp = vector_field(sid, i, par, state)
        for g in constraints:
            rate = time_derivative(lambda w, t: g(w[:n], w[n:], t, par),
                                   state.q + state.p, dq + dp, state.t, i)
            worst = max(worst, abs(rate))
    return worst


def assert_rates_match_reference(sid, params, states, constraints):
    for st in states:
        assert (constraint_rate(sid, params, st, constraints)
                == reference_rate(sid, params, st, constraints))
        for g in constraints:
            assert (constraint_rate(sid, params, st, (g,))
                    == reference_rate(sid, params, st, (g,)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cid", list(RIGID_CASES))
def test_constraint_rate_is_the_per_flow_route_bit_for_bit_on_lifts(cid, seed):
    # lifted states sit on the manifold (rates near 0); generic draws of
    # the parent are off it (rates of order 1)
    rng = rng_from_seed(seed)
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng)
    states = []
    for _ in range(3):
        times = sample_state(case.parent, rng).t
        y = [rational_complex(rng, nonzero=True) for _ in range(4)]
        states += lift_solution(case, par, [y], [times])
        states.append(sample_state(case.parent, rng))
    assert_rates_match_reference(case.parent, par, states, case.constraints)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("label", list(RULES))
def test_constraint_rate_is_the_per_flow_route_bit_for_bit_on_rules(label,
                                                                    seed):
    rng = rng_from_seed(seed)
    rule = RULES[label]
    for _ in range(3):
        par = rule.draw_params(rng)
        states = [rule.onto_manifold(rule, rng, par),
                  sample_state(rule.big, rng)]
        assert_rates_match_reference(rule.big, par, states, rule.constraints)


def test_constraint_rate_reads_each_flow_its_own_time_slot():
    sid = "21,21,21,21,111"
    rng = rng_from_seed(3)
    par = sample_params(sid, rng)
    st = sample_state(sid, rng)
    t1, t2 = st.t
    # d t2/dt1 = 0 and d t2/dt2 = 1
    assert constraint_rate(sid, par, st, (lambda q, p, t, par: t[1],)) == 1.0
    assert (constraint_rate(sid, par, st, (lambda q, p, t, par: t[0] * t[1],))
            == max(abs(t2), abs(t1)))
    # the max over flows is blind to which flow reads which slot; this
    # constraint is not
    dq1 = vector_field(sid, 1, par, st)[0][0]
    dq2 = vector_field(sid, 2, par, st)[0][0]
    assert (constraint_rate(sid, par, st, (lambda q, p, t, par: q[0] + t[1],))
            == max(abs(dq1), abs(dq2 + 1.0)))
