"""Problem definition, validation, presets, serialization."""

import dataclasses

import numpy as np
import pytest

from beamstab import problem as pb


def _ne1():
    return pb.preset("test_NE1")


# ---------------------------------------------------------------------------
# coefficient fields and bounds
# ---------------------------------------------------------------------------

def test_constant_bounds():
    c = pb.CoefficientField.constant(1.0)
    assert pb.coefficient_bounds(c, 1.0) == (1.0, 1.0)


def test_linear_bounds():
    c = pb.CoefficientField.polynomial((1.0, 1.0))  # 1 + x
    assert pb.coefficient_bounds(c, 1.0) == (1.0, 2.0)


def test_quadratic_bounds_against_dense_sampling():
    # oracle: dense sampling at 1e6 points; closed form puts the vertex
    # of x^2 - x at (0.5, -0.25)
    c = pb.CoefficientField.polynomial((0.0, -1.0, 1.0))
    xs = np.linspace(0.0, 1.0, 1_000_001)
    vals = c(xs)
    lo, hi = pb.coefficient_bounds(c, 1.0)
    assert lo == pytest.approx(-0.25, abs=1e-14)
    assert hi == pytest.approx(0.0, abs=1e-14)
    assert lo == pytest.approx(vals.min(), rel=1e-10)
    assert hi == pytest.approx(vals.max(), abs=1e-10)


@pytest.mark.parametrize("coeffs", [(2.0,), (0.5, 1.0, -0.3), (1.0, 0.0, 0.0, 2.0, -1.5)])
def test_polynomial_bounds_match_dense_sampling(coeffs):
    c = pb.CoefficientField.polynomial(coeffs)
    xs = np.linspace(0.0, 1.0, 1_000_001)
    vals = c(xs)
    lo, hi = pb.coefficient_bounds(c, 1.0)
    scale = max(1.0, np.max(np.abs(vals)))
    assert abs(lo - vals.min()) <= 1e-10 * scale
    assert abs(hi - vals.max()) <= 1e-10 * scale


def test_table_bounds_attained_at_nodes():
    c = pb.CoefficientField.table((0.0, 0.4, 1.0), (2.0, 0.5, 3.0))
    assert pb.coefficient_bounds(c, 1.0) == (0.5, 3.0)


def test_table_evaluation_is_linear_interpolation():
    c = pb.CoefficientField.table((0.0, 1.0), (1.0, 3.0))
    assert c(0.25) == pytest.approx(1.5)


def test_knots_are_a_tables_nodes_and_empty_otherwise():
    xs = (0.0, 0.25, 0.5, 1.0)
    assert pb.CoefficientField.table(xs, (1.0, 2.0, 2.0, 1.0)).knots == xs
    assert pb.SpatialProfile.table(xs, (0.0, 1.0, 0.0, 1.0)).knots == xs
    assert pb.CoefficientField.constant(2.0).knots == ()
    assert pb.CoefficientField.polynomial((1.0, 2.0)).knots == ()
    assert pb.SpatialProfile.polynomial((0.0, 0.0, 1.0)).knots == ()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_ne1_validates_clean():
    report = pb.validate(_ne1())
    assert report.empty


def test_zero_rigidity_is_flagged():
    bad = dataclasses.replace(_ne1(), rigidity=pb.CoefficientField.constant(0.0))
    report = pb.validate(bad)
    assert any("r0 > 0 fails" in e for e in report.errors)


def test_negative_density_is_flagged():
    bad = dataclasses.replace(_ne1(), rho=pb.CoefficientField.polynomial((0.5, -1.0)))
    report = pb.validate(bad)
    assert any("rho0 > 0 fails" in e for e in report.errors)


def test_undamped_case_warns_but_passes():
    prob = dataclasses.replace(
        _ne1(),
        mu=pb.CoefficientField.constant(0.0),
        boundary=pb.BoundaryParams(k_r=1.0, k_d=1.0, k_a=0.0, k_v=0.0),
        forcing=pb.BoundaryForcing(),
    )
    report = pb.validate(prob)
    assert report.ok
    assert any("k_a + k_v + mu0 > 0 fails" in w for w in report.warnings)


def test_negative_spring_is_flagged():
    bad = dataclasses.replace(_ne1(), boundary=pb.BoundaryParams(k_r=-1.0))
    report = pb.validate(bad)
    assert any("k_r >= 0 fails" in e for e in report.errors)


@pytest.mark.parametrize("name, value", [
    ("k_v", float("nan")), ("k_d", float("inf")), ("k_r", -float("inf"))])
def test_non_finite_boundary_constant_is_flagged(name, value):
    bad = dataclasses.replace(_ne1(), boundary=pb.BoundaryParams(**{name: value}))
    report = pb.validate(bad)
    assert any(e.startswith(f"{name} must be finite") for e in report.errors)


@pytest.mark.parametrize("g", [
    pb.TimeFunction.exponential(float("nan"), 0.0),
    pb.TimeFunction.exponential(1.0, float("inf")),
    pb.TimeFunction.table((0.0, 1.5), (0.1, float("nan"))),
    pb.TimeFunction.table((0.0, float("inf")), (0.1, 0.2)),
])
def test_non_finite_forcing_parameters_are_flagged(g):
    bad = dataclasses.replace(_ne1(), forcing=pb.BoundaryForcing(g_M=g))
    report = pb.validate(bad)
    assert "forcing.g_M: parameters must be finite" in report.errors


def test_short_table_names_the_field():
    bad = dataclasses.replace(
        _ne1(), mu=pb.CoefficientField.table((0.0, 0.5), (1.0, 1.0)))
    report = pb.validate(bad)
    assert any(e.startswith("mu:") for e in report.errors)


def test_short_initial_profile_table_is_flagged():
    # the spline would extrapolate the data on (0.3, 1] silently
    prob = _ne1()
    xs = np.linspace(0.0, 0.3, 5)
    bad = dataclasses.replace(prob, initial=dataclasses.replace(
        prob.initial, u0=pb.SpatialProfile.table(xs, xs**2, clamp_left=True)))
    report = pb.validate(bad)
    assert "initial.u0: table [0.0, 0.3] does not cover [0, 1.0]" in report.errors


def test_unclamped_initial_displacement_is_flagged():
    bad = dataclasses.replace(
        _ne1(),
        initial=pb.InitialData(u0=pb.SpatialProfile.polynomial((0.0, 1.0)),
                               u1=pb.SpatialProfile.polynomial((0.0,))))
    report = pb.validate(bad)
    assert any("clamped compatibility" in e for e in report.errors)


@pytest.mark.parametrize("field, data, error", [
    ("rho", pb.CoefficientField("polynomial", ()), IndexError),
    ("mu", pb.CoefficientField("polynomial", ("a",)), TypeError),
    ("rigidity", pb.CoefficientField("table", ((0.0, 1.0), (1.0,))), ValueError),
    ("u0", pb.SpatialProfile("polynomial", ()), IndexError),
])
def test_malformed_data_is_reported_not_raised(field, data, error):
    # each datum raises the named error when evaluated; validate reports it
    prob = _ne1()
    if field == "u0":
        bad = dataclasses.replace(prob, initial=dataclasses.replace(prob.initial, u0=data))
    else:
        bad = dataclasses.replace(prob, **{field: data})
    with pytest.raises(error):
        data(np.linspace(0.0, 1.0, 5))
    report = pb.validate(bad)
    name = {"rigidity": "r", "u0": "initial.u0"}.get(field, field)
    assert any(e.startswith(f"{name}: not evaluable") for e in report.errors)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_presets_validate(name):
    assert pb.validate(pb.preset(name)).ok


def test_cantilever_free_has_no_end_hardware():
    bc = pb.preset("cantilever_free").boundary
    assert (bc.k_r, bc.k_d, bc.k_a, bc.k_v) == (0.0, 0.0, 0.0, 0.0)


def test_ne1_initial_displacement_is_x_squared():
    prob = _ne1()
    assert float(prob.initial.u0(0.5)) == pytest.approx(0.25, abs=1e-15)
    assert float(prob.initial.u1(0.5)) == pytest.approx(-0.5, abs=1e-15)


def test_ne1_forcing_values():
    prob = _ne1()
    assert float(prob.forcing.g_M(0.0)) == pytest.approx(-4.0)
    assert float(prob.forcing.g_Q(0.25)) == pytest.approx(2.0 * np.exp(-0.5))
    assert prob.final_time == 1.5


def test_mast_is_constant_coefficient_and_undamped_in_bulk():
    prob = pb.preset("mast_constant")
    assert prob.rho.kind == "constant" and prob.rigidity.kind == "constant"
    assert prob.mu_bounds == (0.0, 0.0)
    assert prob.boundary.k_r == 0.0 and prob.boundary.k_d == 0.0
    assert prob.boundary.k_a > 0.0 and prob.boundary.k_v > 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        pb.preset("nope")


def test_damping_presence_flag():
    assert pb.preset("mast_constant").is_damped
    undamped = dataclasses.replace(
        pb.preset("cantilever_spring"), mu=pb.CoefficientField.constant(0.0))
    assert not undamped.is_damped


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_json_round_trip_is_byte_identical(name):
    text = pb.problem_to_json(pb.preset(name))
    again = pb.problem_to_json(pb.problem_from_json(text))
    assert text == again


def test_json_round_trip_with_tables():
    prob = dataclasses.replace(
        _ne1(),
        mu=pb.CoefficientField.table((0.0, 0.3, 1.0), (1.0, 2.0, 1.5)),
        forcing=pb.BoundaryForcing(
            g_M=pb.TimeFunction.table((0.0, 1.5), (0.1, 0.2)),
            g_Q=pb.TimeFunction.zero()),
        initial=pb.InitialData(
            u0=pb.SpatialProfile.table((0.0, 0.25, 0.5, 0.75, 1.0),
                                       (0.0, 0.1, 0.3, 0.6, 1.0), clamp_left=True),
            u1=pb.SpatialProfile.polynomial((0.0,))),
    )
    text = pb.problem_to_json(prob)
    again = pb.problem_to_json(pb.problem_from_json(text))
    assert text == again


def test_save_load_file(tmp_path):
    path = tmp_path / "p.json"
    pb.save_problem(_ne1(), path)
    prob = pb.load_problem(path)
    assert prob.boundary.k_r == 6.0
    assert prob.rigidity(0.5) == pytest.approx(1.5)


def test_spline_table_profile_has_two_derivatives():
    xs = np.linspace(0.0, 1.0, 9)
    prof = pb.SpatialProfile.table(xs, xs**2, clamp_left=True)
    assert float(prof(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(prof.d1(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(prof.d2(0.5)) == pytest.approx(2.0, rel=0.2)


def test_exact_solution_registry():
    exact = pb.exact_solution("test_NE1")
    assert float(exact.u(0.5, 0.75)) == pytest.approx(0.25 * np.exp(-1.5))
    with pytest.raises(ValueError):
        pb.exact_solution("cantilever_free")
