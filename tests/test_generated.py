"""Generated problems: the windows stepped by a forked child give the same
bytes as the in-process step loop, results and failures alike."""

import dataclasses
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import beamstab.cli as cli
from beamstab import problem as pb

_CONSTANT = st.one_of(st.none(), st.just(0.0), st.floats(0.1, 8.0))  # None: the preset's


@st.composite
def _runs(draw):
    """A preset with any of its end constants, its viscous damping and its
    end loads replaced, on a mesh of at most 21 nodes."""
    prob = pb.preset(draw(st.sampled_from(pb.PRESET_NAMES)))
    for name in ("k_r", "k_a", "k_d", "k_v"):
        value = draw(_CONSTANT)
        if value is not None:
            prob = cli._with_parameter(prob, name, value)
    prob = cli._with_parameter(prob, "mu_scale", draw(st.sampled_from([0.0, 1.0, 3.0])))
    # no load, a decaying or growing one, or one that overflows near t = 0.71
    loads = [pb.TimeFunction.zero(), pb.TimeFunction.exponential(2.0, -2.0),
             pb.TimeFunction.exponential(-0.5, 1.0),
             pb.TimeFunction.exponential(1e-300, 1000.0)]
    prob = dataclasses.replace(prob, forcing=pb.BoundaryForcing(
        g_M=draw(st.sampled_from(loads[:3])), g_Q=draw(st.sampled_from(loads))))
    config = cli.RunConfig(
        "", False, nodes=draw(st.integers(3, 21)), ratio=draw(st.sampled_from([5.0, 10.0])),
        decimate=draw(st.integers(1, 7)), lam=draw(st.sampled_from([None, 0.01, 0.3])))
    return prob, config


def _outcome(prob, config, ahead):
    """Every array of the run's EnergyTrace as bytes, or the exception's type
    and text, with the trace.csv text written before either."""
    trace_csv = io.StringIO()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            energy = cli._streamed_energy(prob, config, trace_csv, ahead=ahead)
    except Exception as exc:
        return type(exc), str(exc), trace_csv.getvalue()
    fields = {f.name: getattr(energy, f.name) for f in dataclasses.fields(energy)}
    return ({name: value.tobytes() if isinstance(value, np.ndarray) else value
             for name, value in fields.items()}, trace_csv.getvalue())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_runs())
def test_forked_windows_give_the_in_process_bytes(run):
    prob, config = run
    assert cli.validate(prob).ok
    assert _outcome(prob, config, ahead=True) == _outcome(prob, config, ahead=False)
