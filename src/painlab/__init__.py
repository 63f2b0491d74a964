"""painlab: four- and six-dimensional Painleve Hamiltonian systems.

Library layout:

- :mod:`painlab.algebra`          dual scalars, small-matrix eigenvalues
- :mod:`painlab.hamiltonians`     closed-form Hamiltonians of the catalog
- :mod:`painlab.catalog`          system descriptors, flows, constraint rates
- :mod:`painlab.degenerations`    degeneration rules between catalog systems
- :mod:`painlab.sampling`         seeded parameter and state draws
- :mod:`painlab.fuchsian`         Fuchsian systems, spectral types
- :mod:`painlab.parametrizations` residue matrices of a phase-space point
- :mod:`painlab.schlesinger`      matrix deformation flows, canonical maps
- :mod:`painlab.integrator`       adaptive Runge-Kutta along complex paths
- :mod:`painlab.monodromy`        numerical monodromy and deformation drift
- :mod:`painlab.rigid`            rigid systems and particular-solution lifts
- :mod:`painlab.verify`           the full verification suite
- :mod:`painlab.cli`              the ``painlab`` command line driver
"""

__version__ = "0.1.0"
