"""The draws: equal to ``Generator.integers`` bit for bit, and the errors
of bad input."""

from pathlib import Path

import numpy as np
import pytest

import painlab
from painlab import verify
from painlab.catalog import lookup
from painlab.parametrizations import SUPPORTED
from painlab.sampling import (MAX_DRAWS, DrawBudgetError, _below,
                              rational_complex, rng_from_seed, sample_params)


def integers_rational_complex(rng, nonzero=False):
    """The reference: the same draw made by ``Generator.integers`` calls."""
    for _ in range(MAX_DRAWS):
        den = int(rng.integers(1, 5))
        hi = 2 * den
        z = complex(int(rng.integers(-hi, hi + 1)) / den,
                    int(rng.integers(-hi, hi + 1)) / den)
        if abs(z) > 2:
            continue
        if nonzero and abs(z) < 0.25:
            continue
        return z
    raise RuntimeError(f"no rational value with |z| <= 2 in {MAX_DRAWS} draws")


def _run(draw, rng):
    """300 values, half of them nonzero, with ``integers`` and ``random``
    calls interleaved; the values and the state left behind."""
    out = []
    for k in range(300):
        out.append(draw(rng, nonzero=k % 2 == 1))
        if k % 7 == 3:
            out.append(int(rng.integers(0, 1000)))
        if k % 11 == 5:
            out.append(rng.random())
    return out, _plain(rng.bit_generator.state)


def _plain(state):
    """A bit generator's state with its arrays as lists, so ``==`` compares
    it whole."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937,
                                    np.random.Philox])
def test_rational_complex_matches_integers_draws(bitgen):
    for seed in range(100):
        got = _run(rational_complex, np.random.Generator(bitgen(seed)))
        want = _run(integers_rational_complex,
                    np.random.Generator(bitgen(seed)))
        assert got == want, (bitgen.__name__, seed)


@pytest.mark.parametrize("n", [3, 4, 5, 9, 17, 2**31 + 12345, 3 * 2**30,
                               2**32 - 5])
def test_below_matches_integers(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    bits = rng.bit_generator.ctypes
    # a second stream, drawn alongside, tells which draws were redrawn
    shadow = np.random.default_rng(n).bit_generator.ctypes
    redraws = 0
    for _ in range(2000):
        assert _below(bits.next_uint32, bits.state, n) == ref.integers(0, n)
        u = shadow.next_uint32(shadow.state)
        while (u * n) % 2**32 < 2**32 % n:
            redraws += 1
            u = shadow.next_uint32(shadow.state)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert shadow.next_uint32(shadow.state) == bits.next_uint32(bits.state)
    if n in (2**31 + 12345, 3 * 2**30):
        assert redraws > 0


def test_sample_params_rejects_an_unknown_preset():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=r"21,21,21,21,111: .*rho99"):
        sample_params("21,21,21,21,111", rng, fixed={"rho99": 0.0})
    # raised before any draw
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_sample_params_with_no_free_relation_parameter():
    sid = "21,21,21,21,111"
    desc = lookup(sid)
    fixed = {n: 0.5 for n in desc.param_names
             if n in desc.fuchs_relation.coeffs}
    with pytest.raises(ValueError, match=f"{sid}: no free parameter of the "
                                         "trace relation to solve for"):
        sample_params(sid, np.random.default_rng(1), fixed=fixed)


def test_rational_complex_needs_a_generator():
    with pytest.raises(TypeError,
                       match="numpy.random.Generator, got RandomState"):
        rational_complex(np.random.RandomState(1))


def test_below_gives_up_after_max_draws():
    calls = []

    def draw(state):
        calls.append(state)
        return 0  # 0 * 5 mod 2**32 = 0 < 2**32 mod 5, so always redrawn

    with pytest.raises(DrawBudgetError, match="below 5") as info:
        _below(draw, None, 5)
    assert len(calls) == MAX_DRAWS
    assert str(info.value) == f"no unbiased draw below 5 in {MAX_DRAWS} draws"
    assert info.value.owner is None


def _zero_preset(sid):
    # a generic draw keeps every parameter 0.2 away from 0, which a preset
    # 0 never is
    return lambda monkeypatch: sample_params(
        sid, rng_from_seed(1), fixed={"theta1": 0.0}, generic=True)


def _singular_chart(monkeypatch):
    def singular(*args):
        raise ValueError("on the chart's singular set")

    monkeypatch.setattr(verify, "dual_gradient", singular)
    verify.verify_symplectic()


@pytest.mark.parametrize("run, owner, what", [
    *[(_zero_preset(sid), sid, "generic parameters") for sid in SUPPORTED],
    (_singular_chart, verify._SYMPLECTIC_IDS[0],
     "sample off the chart's singular set"),
], ids=[*SUPPORTED, "symplectic"])
def test_exhausted_draws_raise_a_draw_budget_error(run, owner, what,
                                                   monkeypatch):
    with pytest.raises(DrawBudgetError) as info:
        run(monkeypatch)
    err = info.value
    assert isinstance(err, RuntimeError)
    assert (err.owner, err.what, err.draws) == (owner, what, MAX_DRAWS)
    assert str(err) == f"{owner}: no {what} in {MAX_DRAWS} draws"


def test_only_sampling_names_the_draw_budget():
    # every other module bounds its rejection loops through redraws
    src = Path(painlab.__file__).parent
    assert sorted(p.name for p in src.glob("*.py")
                  if "MAX_DRAWS" in p.read_text()) == ["sampling.py"]
