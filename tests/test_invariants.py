"""Cross-module invariants: stability of every shipped stepper family."""

from mgrit_advection import (DiscretizationSpec, cfl_limit,
                             modified_coarse_stepper, mol_stepper, sl_stepper)

#: modified-operator configurations the experiment suites run (fine CFL kept
#: below the near-limit degradation region for the fifth-order explicit pair)
SHIPPED_MODIFIED = (
    [("erk", p, 0.85, m) for p in (1, 3) for m in (2, 4, 8, 16)]
    + [("erk", 5, 0.5, m) for m in (2, 4)]
    + [("sdirk", p, c, m) for p in (1, 3, 5) for c in (1.0, 5.0, 8.0)
       for m in (2, 16)]
)


def test_every_sl_stepper_is_contractive():
    for p in range(1, 6):
        for mc in (0.05, 0.5, 0.99, 1.0, 3.7, 22.5):
            st = sl_stepper(p, mc, 128)
            assert st.max_amplification() <= 1.0 + 1e-10


def test_every_sdirk_stepper_is_contractive():
    for p in range(1, 6):
        for c in (0.1, 1.0, 8.0, 64.0):
            spec = DiscretizationSpec("sdirk", p, c, 64, 8)
            assert mol_stepper(spec).max_amplification() <= 1.0 + 1e-10


def test_every_erk_stepper_is_contractive_below_limit():
    # the limit itself is located with the 1e-6 amplification tolerance, so
    # amplification below it is bounded by that same tolerance; away from the
    # fifth-order pair's grazing modes the strict bound holds
    from mgrit_advection.stepping import STABILITY_TOL
    for p in range(1, 6):
        limit = cfl_limit(p)
        for frac in (0.3, 0.85, 0.999):
            spec = DiscretizationSpec("erk", p, frac * limit, 64, 8)
            amp = mol_stepper(spec).max_amplification()
            assert amp <= 1.0 + STABILITY_TOL
            if p <= 4:
                assert amp <= 1.0 + 1e-10


def test_shipped_modified_coarse_steppers_are_stable():
    for family, p, c_raw, m in SHIPPED_MODIFIED:
        c = c_raw * cfl_limit(p) if family == "erk" else c_raw
        spec = DiscretizationSpec(family, p, c, 64, 64)
        st = modified_coarse_stepper(spec, m)
        assert st.max_amplification() <= 1.0 + 1e-10, (family, p, c, m)


def test_shipped_modified_odd_order_factors_below_one():
    # convergent-everywhere claim for the dissipative configurations
    from mgrit_advection import rho_two_level
    from mgrit_advection.lfa import default_exclusion_count
    for family, p, c_raw, m in SHIPPED_MODIFIED:
        c = c_raw * cfl_limit(p) if family == "erk" else c_raw
        spec = DiscretizationSpec(family, p, c, 64, 64)
        fine = mol_stepper(spec)
        coarse = modified_coarse_stepper(spec, m)
        sweep = rho_two_level(fine.symbol, coarse.symbol, m, 1,
                              n_excluded=default_exclusion_count(p))
        assert sweep.rho_e < 1.0, (family, p, c, m, sweep.rho_e)

