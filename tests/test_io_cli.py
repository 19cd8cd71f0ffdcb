import json
import os
import re
import struct

import numpy as np
import pytest
from conftest import no_hang

import hybridlag as hl
from hybridlag import cli, hybrid
from hybridlag.io import (CONFIG_KEYS, config_from_dict, dumps_record,
                          events_header, fmt, parse_config,
                          trajectory_header, write_events_csv,
                          write_trajectory_csv)

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


# ---------------------------------------------------------------------------
# number formatting
# ---------------------------------------------------------------------------

def test_fmt_round_trips_doubles(rng):
    # the CSV writers' '%.17g' row templates write each float as fmt does
    for x in (float("nan"), float("inf"), float("-inf"), 0.0, -0.0):
        assert "%.17g" % x == fmt(x)
    for _ in range(200):
        bits = rng.integers(0, 2**64, dtype=np.uint64)
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        assert "%.17g" % x == fmt(x)
        if not np.isfinite(x):
            continue
        assert float(fmt(x)) == x


def test_dumps_record_deterministic_and_sorted():
    rec = {"b": 1.5, "a": [1, 2.25, {"z": True, "y": None}], "c": "x"}
    text1 = dumps_record(rec)
    text2 = dumps_record(dict(reversed(list(rec.items()))))
    assert text1 == text2
    assert text1.index('"a"') < text1.index('"b"') < text1.index('"c"')


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_minimal_defaults():
    cfg = parse_config('{"model": "billiard-cartesian", "mode": "full", '
                       '"horizon": 2.0}')
    assert cfg.out == "."
    # the step control and the impact cap are fixed, not keys
    assert hybrid.RTOL == hybrid.ATOL == 1e-10
    assert hybrid.MAX_IMPACTS == 10000


def test_readme_config_table_lists_the_config_keys():
    with open(README) as fh:
        text = fh.read()
    table = text[text.index("| key | type |"):]
    table = table[:table.index("\n\n")]
    keys = []
    for row in table.splitlines()[2:]:
        keys += re.findall(r"`([^`]+)`", row.split("|")[1])
    assert len(keys) == len(set(keys))
    assert set(keys) == set(CONFIG_KEYS)


def test_parse_config_unknown_key():
    base = {"model": "billiard-cartesian", "mode": "full", "horizon": 1.0}
    # event_tol was a key up to schema 1, direction_mode and
    # polar_reset_sign up to schema 2, and max_step, guard_tol, min_dwell,
    # write_trajectory and write_events up to schema 3, and rtol, atol
    # and max_impacts up to schema 4; a run.json echoing one no longer
    # parses
    removed = ((1, "event_tol", 1e-10), (2, "direction_mode", "co-moving"),
               (2, "polar_reset_sign", "inward"), (3, "max_step", 2.0),
               (3, "guard_tol", 1e-8), (3, "min_dwell", 1e-9),
               (3, "write_trajectory", True), (3, "write_events", True),
               (4, "rtol", 1e-10), (4, "atol", 1e-10),
               (4, "max_impacts", 10000))
    for doc, key in [({**base, "wavelength": 3}, "wavelength")] + [
            ({"schema_version": schema, "config": {**base, key: value}}, key)
            for schema, key, value in removed]:
        with pytest.raises(hl.ParseError) as err:
            parse_config(json.dumps(doc))
        assert err.value.key == key


# max_step, guard_tol and min_dwell were number keys up to schema 3, and
# rtol and atol up to schema 4; any value of them is now an unknown key
@pytest.mark.parametrize("key", ["horizon", "initial_t", "rtol", "atol",
                                 "max_step", "guard_tol", "min_dwell",
                                 "m", "c"])
@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400",
                                    "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "1e400", "10**400"])
def test_parse_config_non_finite_number(key, number):
    # JSON admits these for every number key; a run.json echo could not
    # reproduce them
    text = ('{"model": "billiard-polar", "mode": "full", "horizon": 3, '
            '"initial_q": [0.5, 1.0], "initial_v": [0.5, 0.5], '
            f'"{key}": {number}}}')
    with pytest.raises(hl.ParseError) as err:
        parse_config(text)
    assert err.value.key == key


def test_parse_config_negative_tolerance():
    # rtol was a key up to schema 4; any value of it is now an unknown key
    with pytest.raises(hl.ParseError) as err:
        parse_config('{"model": "billiard-cartesian", "mode": "full", '
                     '"horizon": 1.0, "rtol": -1e-10}')
    assert err.value.key == "rtol"


@pytest.mark.parametrize("key", ["horizon", "max_impacts", "c", "scenario"])
def test_parse_config_rejects_booleans(key):
    # a JSON boolean is an int to Python; no key takes one (max_impacts
    # was a key up to schema 4, and any value of it is now an unknown key)
    doc = {"model": "billiard-cartesian", "mode": "full", "horizon": 1.0,
           key: True}
    with pytest.raises(hl.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.key == key


def test_parse_config_bad_mode_and_model():
    with pytest.raises(hl.ParseError):
        parse_config('{"model": "billiard-cartesian", "mode": "meditate", '
                     '"horizon": 1.0}')
    with pytest.raises(hl.ParseError):
        parse_config('{"model": "pinball", "mode": "full", "horizon": 1.0}')


def test_parse_config_invalid_json():
    with pytest.raises(hl.ParseError):
        parse_config("{not json")


# run.json "config" echoes, frozen from the output of earlier releases:
# every key set (ints given for float keys), and a scenario alone (no
# parameter keys echoed)
ECHO_EVERY_KEY = {
    "model": "billiard-polar", "scenario": "paper-c010", "mode": "full",
    "horizon": 3, "out": "runs/all", "initial_t": 0, "initial_q": [0.5, 1],
    "initial_v": [1.25, -3], "m": 2, "c": 0}
ECHO_EVERY_KEY_TEXT = """{
  "c": 0,
  "horizon": 3,
  "initial_q": [
    0.5,
    1
  ],
  "initial_t": 0,
  "initial_v": [
    1.25,
    -3
  ],
  "m": 2,
  "mode": "full",
  "model": "billiard-polar",
  "out": "runs/all",
  "scenario": "paper-c010"
}"""
ECHO_SCENARIO_ONLY = {"model": "billiard-cartesian", "scenario": "paper-c025",
                      "mode": "reduced", "horizon": 10}
ECHO_SCENARIO_ONLY_TEXT = """{
  "horizon": 10,
  "mode": "reduced",
  "model": "billiard-cartesian",
  "out": ".",
  "scenario": "paper-c025"
}"""


@pytest.mark.parametrize("doc, text", [
    (ECHO_EVERY_KEY, ECHO_EVERY_KEY_TEXT),
    (ECHO_SCENARIO_ONLY, ECHO_SCENARIO_ONLY_TEXT),
], ids=["every-key", "scenario-only"])
def test_config_echo_is_frozen(doc, text):
    cfg = parse_config(json.dumps(doc))
    assert dumps_record(cfg.to_record()) == text
    # the echo is itself a configuration of the same run
    assert parse_config(text) == cfg


def test_config_params_apply_overrides_to_the_scenario():
    cfg = parse_config(json.dumps(ECHO_EVERY_KEY))
    assert cfg.params == hl.BilliardParams(m=2.0, c=0.0)


def test_scenario_sets_parameters_and_start():
    cfg = config_from_dict({"model": "billiard-polar", "mode": "full",
                            "horizon": 1.0, "scenario": "paper-c010"})
    assert cfg.params.c == 0.10
    bundle = hl.build_model("billiard-polar", cfg.params)
    s0 = cli._initial_state(cfg, bundle)
    assert np.allclose(s0.q, [0.5590, 1.1071], atol=0)
    assert np.allclose(s0.v, [2.8621, -3.0400], atol=0)


def test_explicit_initial_state_override():
    cfg = config_from_dict({"model": "billiard-cartesian", "mode": "full",
                            "horizon": 1.0, "initial_q": [0.1, 0.0],
                            "initial_v": [1.0, 0.5], "initial_t": 0.25})
    bundle = hl.build_model("billiard-cartesian")
    s0 = cli._initial_state(cfg, bundle)
    assert s0.t == 0.25
    assert np.allclose(s0.q, [0.1, 0.0])


# ---------------------------------------------------------------------------
# CSV schema
# ---------------------------------------------------------------------------

def test_csv_headers():
    assert trajectory_header(2) == ["t", "arc_index", "q_1", "q_2", "v_1",
                                    "v_2"]
    assert trajectory_header(1, with_theta=True) == [
        "t", "arc_index", "q_1", "v_1", "theta", "theta_dot"]
    assert events_header(2) == [
        "tau", "pre_q_1", "pre_q_2", "pre_v_1", "pre_v_2",
        "post_q_1", "post_q_2", "post_v_1", "post_v_2", "guard_residual"]


def test_csv_round_trip_values(tmp_path):
    wall, rate = hl.static_wall(1.0)
    p = hl.BilliardParams(c=0.0, wall=wall, wall_rate=rate)
    flow = hl.simulate(hl.cartesian_hybrid(p),
                       hl.State(0.0, np.zeros(2), np.array([1.0, 0.0])), 2.0)
    tp = tmp_path / "trajectory.csv"
    ep = tmp_path / "events.csv"
    write_trajectory_csv(tp, flow)
    write_events_csv(ep, flow)
    lines = tp.read_text().splitlines()
    assert lines[0] == "t,arc_index,q_1,q_2,v_1,v_2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and first[1] == "0"
    ev_lines = ep.read_text().splitlines()
    assert len(ev_lines) == 2
    row = ev_lines[1].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=1e-9)
    # post velocity columns hold the exact reset image
    assert float(row[7]) == flow.events[0].post.v[0]


def _written_flow(kind):
    """(flow, reconstruction or None) of a reduced paper-c025 run with
    its angle, of the same run alone (one-dimensional), or of a free
    particle (no events)."""
    if kind == "no-events":
        bundle = hl.build_model("free-particle")
        return hl.simulate(bundle.hybrid, bundle.default_initial, 3.0), None
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    mu0 = hl.momentum_map(cyc, sc.initial_polar)
    flow = hl.simulate(hl.reduce(cyc, mu0).shape,
                       cyc.project_state(sc.initial_polar), 3.0)
    if kind == "one-dim":
        return flow, None
    return flow, hl.reconstruct(cyc, flow, mu0,
                                float(sc.initial_polar.q[cyc.cyclic_index]))


def test_csv_writers_write_fields_as_fmt(tmp_path):
    # every field of both tables, the reconstruction's columns included,
    # is fmt of its value (arc_index as an integer), in header order
    for kind in ("reduced-theta", "one-dim", "no-events"):
        flow, recon = _written_flow(kind)
        assert (len(flow.arcs) > 1) == bool(flow.events) == (
            kind != "no-events")
        write_trajectory_csv(tmp_path / "t.csv", flow, recon)
        write_events_csv(tmp_path / "e.csv", flow)
        rows = [[fmt(t), str(k)] + [fmt(x) for x in arc.states[i]]
                + ([] if recon is None else [fmt(recon.theta[k][i]),
                                             fmt(recon.theta_dot[k][i])])
                for k, arc in enumerate(flow.arcs)
                for i, t in enumerate(arc.times)]
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            ",".join(r) for r in rows], kind
        rows = [[fmt(x) for x in [e.tau, *e.pre.q, *e.pre.v, *e.post.q,
                                  *e.post.v, e.guard_residual]]
                for e in flow.events]
        assert (tmp_path / "e.csv").read_text().splitlines()[1:] == [
            ",".join(r) for r in rows], kind


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, **doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def error_record(out):
    return json.loads(open(os.path.join(out, "error.json")).read())


# direction_mode and polar_reset_sign were keys up to schema 2; any value
# of them is now an unknown key
@pytest.mark.parametrize("key, value", [
    ("c", -1), ("m", 0), ("m", -2.5), ("direction_mode", "sideways"),
    ("polar_reset_sign", "outward"),
])
def test_cli_illegal_parameter_is_parse_error(tmp_path, key, value):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, model="billiard-cartesian", mode="full",
                       horizon=1, scenario="paper-c025", **{key: value})
    assert run_cli("run", "--config", cfg, "--out", out) == 2
    record = error_record(out)
    assert record["error"] == "ParseError"
    assert record["key"] == key


@pytest.mark.parametrize("initial_q, initial_v, key", [
    ([0.1, 0.2, 0.3], [1, 0], "initial_q"),
    ([0.1, 0.2], [1], "initial_v"),
    ([0.1, 0.2], None, "initial_v"),
], ids=["q-too-long", "v-too-short", "v-missing"])
def test_cli_initial_state_of_wrong_dimension_is_parse_error(
        tmp_path, initial_q, initial_v, key):
    out = str(tmp_path / "out")
    doc = {"model": "billiard-cartesian", "mode": "full", "horizon": 1,
           "initial_q": initial_q}
    if initial_v is not None:
        doc["initial_v"] = initial_v
    assert run_cli("run", "--config", write_config(tmp_path, **doc),
                   "--out", out) == 1
    record = error_record(out)
    assert record["error"] == "ParseError"
    assert record["key"] == key


@pytest.mark.parametrize("key", ["initial_q", "initial_v"])
def test_cli_initial_state_beyond_float_range_is_parse_error(tmp_path, key):
    # JSON integers have no bound; float() of this one overflows
    out = str(tmp_path / "out")
    doc = {"model": "billiard-cartesian", "mode": "full", "horizon": 1,
           "initial_q": [0.1, 0.0], "initial_v": [0.0, 1.0]}
    doc[key] = [10**400, 0]
    assert run_cli("run", "--config", write_config(tmp_path, **doc),
                   "--out", out) == 1
    record = error_record(out)
    assert record["error"] == "ParseError"
    assert record["key"] == key
    assert not os.path.exists(os.path.join(out, "run.json"))


@pytest.mark.parametrize("mode", ["full", "resequenced"])
def test_cli_initial_time_after_horizon_errors(tmp_path, mode):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, model="billiard-polar", mode=mode,
                       horizon=1, initial_t=2, initial_q=[0.5, 1.0],
                       initial_v=[0.5, 0.5])
    assert run_cli("run", "--config", cfg, "--out", out) == 1
    record = error_record(out)
    assert record["error"] == "InvalidStart"
    assert "precedes the start time" in record["message"]


def test_cli_initial_time_without_initial_state_errors(tmp_path):
    # the scenario's start has its own time; initial_t would be echoed in
    # run.json without taking effect
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, model="billiard-polar",
                       scenario="paper-c025", mode="full", horizon=3,
                       initial_t=2)
    assert run_cli("run", "--config", cfg, "--out", out) == 2
    record = error_record(out)
    assert record["error"] == "ParseError"
    assert record["key"] == "initial_t"
    assert not os.path.exists(os.path.join(out, "run.json"))


@pytest.mark.parametrize("contents", ["{not json", None],
                         ids=["bad-json", "missing-file"])
def test_cli_unreadable_config_writes_error_to_out(tmp_path, monkeypatch,
                                                   contents):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    if contents is not None:
        cfg.write_text(contents)
    out = str(tmp_path / "out")
    assert run_cli("run", "--config", str(cfg), "--out", out) == 2
    assert error_record(out)["error"] == "ParseError"
    assert not os.path.exists(tmp_path / "error.json")


def test_cli_full_run_writes_files(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-cartesian", "--scenario",
                   "paper-c025", "--mode", "full", "--horizon", "2",
                   "--out", out)
    assert code == 0
    for name in ("trajectory.csv", "events.csv", "run.json"):
        assert os.path.exists(os.path.join(out, name))
    record = json.loads(open(os.path.join(out, "run.json")).read())
    assert record["schema_version"] == 5
    assert record["termination"] == "horizon_reached"
    assert record["n_events"] == 3
    assert record["config"]["model"] == "billiard-cartesian"


def test_cli_full_horizon_run_reports_accumulation(tmp_path):
    # over the whole window the shrinking wall closes and impacts
    # accumulate: the run records >= 1 impact and stops with
    # zeno_suspected just short of the collapse time
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-cartesian", "--scenario",
                   "paper-c025", "--mode", "full", "--horizon", "10",
                   "--out", out)
    assert code == 0
    record = json.loads(open(os.path.join(out, "run.json")).read())
    assert record["n_events"] >= 1
    assert record["termination"] == "zeno_suspected"
    assert record["t_final"] == pytest.approx(6.9314718, abs=1e-4)


def test_cli_invalid_model_errors(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "flipper", "--mode", "full",
                   "--horizon", "1", "--out", out)
    assert code != 0
    record = json.loads(open(os.path.join(out, "error.json")).read())
    assert record["error"] == "ParseError"
    assert "flipper" in record["message"]


@pytest.mark.parametrize("model, mode, initial_q", [
    ("billiard-cartesian", "full", "[NaN, 0.1]"),
    ("billiard-polar", "reduced", "[0.5, NaN]"),
])
def test_cli_non_finite_start_errors(tmp_path, model, mode, initial_q):
    out = str(tmp_path / "out")
    cfg = tmp_path / "nan.json"
    cfg.write_text(f'{{"model": "{model}", "mode": "{mode}", "horizon": 1, '
                   f'"initial_q": {initial_q}, "initial_v": [1.0, 0.5]}}')
    code = run_cli("run", "--config", str(cfg), "--out", out)
    assert code == 1
    record = json.loads(open(os.path.join(out, "error.json")).read())
    assert record["error"] == "InvalidStart"
    assert "not finite" in record["message"]


def test_cli_impact_at_wall_collapse_errors(tmp_path):
    # the run's third impact lands on the closed wall at t* = 10 ln 2
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, model="billiard-cartesian", mode="full",
                       horizon=10, c=0.14393321358124805,
                       initial_q=[0.7734375, 0.0],
                       initial_v=[0.1413124436746325, 0.0])
    with no_hang(10):
        code = run_cli("run", "--config", cfg, "--out", out)
    assert code == 1
    record = error_record(out)
    assert record["error"] == "InvalidReset"
    assert "closed wall" in record["message"]


def test_cli_non_finite_field_errors(tmp_path):
    # the polar field is NaN off the chart (r <= 0), here at a finite start
    out = str(tmp_path / "out")
    cfg = tmp_path / "off_chart.json"
    cfg.write_text('{"model": "billiard-polar", "mode": "full", "horizon": 1, '
                   '"initial_q": [-0.5, 0.0], "initial_v": [0.1, 0.1]}')
    with no_hang(10):
        code = run_cli("run", "--config", str(cfg), "--out", out)
    assert code == 1
    record = json.loads(open(os.path.join(out, "error.json")).read())
    assert record["error"] == "IntegrationFailure"
    assert "not finite" in record["message"]


def test_cli_reduced_mode_outputs_theta(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-polar", "--scenario",
                   "paper-c025", "--mode", "reduced", "--horizon", "2",
                   "--out", out)
    assert code == 0
    header = open(os.path.join(out, "trajectory.csv")).readline().strip()
    assert header == "t,arc_index,q_1,v_1,theta,theta_dot"
    record = json.loads(open(os.path.join(out, "run.json")).read())
    assert "mu_sequence" in record
    assert record["mu_sequence"][0] == pytest.approx(-0.94994224, abs=1e-8)


def test_cli_reduced_csv_contents_are_consistent(tmp_path):
    # the emitted theta_dot column must satisfy the closed-form momentum
    # relation exp(-ct) mu / (m r^2) row by row, and theta must accumulate
    # its quadrature
    out = str(tmp_path / "out")
    assert run_cli("run", "--model", "billiard-polar", "--scenario",
                   "paper-c025", "--mode", "reduced", "--horizon", "2",
                   "--out", out) == 0
    record = json.loads(open(os.path.join(out, "run.json")).read())
    mu = record["mu_sequence"][0]
    rows = [line.split(",") for line in
            open(os.path.join(out, "trajectory.csv")).read().splitlines()[1:]]
    data = np.array([[float(x) for x in row] for row in rows])
    t, r, thd = data[:, 0], data[:, 2], data[:, 5]
    assert np.max(np.abs(thd - np.exp(-0.25 * t) * mu / r**2)) <= 1e-12
    theta = data[:, 4]
    # trapezoid sanity on the emitted grid (coarse bound; the stored
    # values come from finer Simpson quadrature)
    for k in range(len(t) - 1):
        if t[k + 1] <= t[k]:
            continue
        step = (t[k + 1] - t[k]) * 0.5 * (thd[k] + thd[k + 1])
        assert abs((theta[k + 1] - theta[k]) - step) <= 2e-3


def test_cli_resequenced_mode(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-polar", "--scenario",
                   "paper-c025", "--mode", "resequenced", "--horizon", "2",
                   "--out", out)
    assert code == 0
    record = json.loads(open(os.path.join(out, "run.json")).read())
    mus = record["mu_sequence"]
    assert len(mus) == record["n_events"] + 1
    assert np.allclose(mus, mus[0], atol=1e-12)


def test_cli_requires_cyclic_model_for_reduced(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-cartesian", "--scenario",
                   "paper-c025", "--mode", "reduced", "--horizon", "1",
                   "--out", out)
    assert code != 0


def test_cli_compare_mode(tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-polar", "--scenario",
                   "paper-c025", "--mode", "compare", "--horizon", "5",
                   "--out", out)
    assert code == 0
    report = json.loads(open(os.path.join(out, "compare.json")).read())
    assert report["passed"] is True
    assert report["events_full"] == report["events_reduced"]
    assert report["max_event_time_delta"] <= 1e-8
    assert report["sup_norm_core"] <= 1e-6
    # where the core sup is attained: an arc whose sup is at least it, at
    # a time inside the run
    arc, t = report["sup_norm_core_arc"], report["sup_norm_core_t"]
    assert report["sup_norm_per_arc"][arc] >= report["sup_norm_core"]
    assert isinstance(t, float) and 0.0 <= t <= 5.0


def test_cli_verify_mode(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli("run", "--model", "billiard-polar", "--scenario",
                   "paper-c025", "--mode", "verify", "--horizon", "3",
                   "--out", out)
    assert code == 0
    report = json.loads(open(os.path.join(out, "verify.json")).read())
    assert report["passed"] is True
    # JSON booleans, not the strings "True"/"False", in both records
    record = json.loads(open(os.path.join(out, "run.json")).read())
    for checks in (report["checks"], record["checks"]):
        assert all(c["passed"] is True for c in checks), checks
    names = {c["check"] for c in report["checks"]}
    assert {"derivative_consistency", "legendre_roundtrip",
            "flow_equivalence", "hybrid_correspondence",
            "momentum_conservation", "arc_oracle_agreement",
            "chart_impact_agreement", "csv_schema"} <= names
    captured = capsys.readouterr()
    assert "momentum_conservation: pass" in captured.out


def test_cli_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": "billiard-cartesian", "mode": "full", "horizon": 5.0,
        "scenario": "paper-c025", "out": str(tmp_path / "a")}))
    code = run_cli("run", "--config", str(cfg_path), "--horizon", "2",
                   "--out", str(tmp_path / "b"))
    assert code == 0
    record = json.loads(open(tmp_path / "b" / "run.json").read())
    assert record["config"]["horizon"] == 2


def test_cli_rerun_from_run_json_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    assert run_cli("run", "--model", "billiard-cartesian", "--scenario",
                   "paper-c025", "--mode", "full", "--horizon", "3",
                   "--out", out1) == 0
    assert run_cli("run", "--config", os.path.join(out1, "run.json"),
                   "--out", out2) == 0
    for name in ("trajectory.csv", "events.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_cli_repeated_runs_byte_identical(tmp_path):
    outs = [str(tmp_path / f"rep{i}") for i in range(2)]
    for out in outs:
        assert run_cli("run", "--model", "billiard-polar", "--scenario",
                       "paper-c010", "--mode", "full", "--horizon", "2",
                       "--out", out) == 0
    for name in ("trajectory.csv", "events.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_cli_calls_in_one_process_share_one_parser(tmp_path, monkeypatch):
    # the parser is built by the first call and kept; no call's arguments,
    # failures or overrides reach the next call
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        first = write_config(tmp_path, model="billiard-cartesian",
                             scenario="paper-c025", mode="full", horizon=3.0,
                             out=str(tmp_path / "first"))
        assert run_cli("run", "--config", first) == 0
        n_built = len(built)
        assert n_built > 0
        assert run_cli("run", "--model", "billiard-polar", "--scenario",
                       "paper-c025", "--mode", "reduced", "--horizon", "2",
                       "--out", str(tmp_path / "reduced")) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "billiard-cartesian",
                                   "mode": "full", "horizon": -1.0,
                                   "out": str(tmp_path / "bad")}))
        assert run_cli("run", "--config", str(bad)) == 2
        assert error_record(str(tmp_path / "bad"))["key"] == "horizon"
        with pytest.raises(SystemExit):
            run_cli("run", "--horizon", "soon")
        assert run_cli("run", "--config", first, "--out",
                       str(tmp_path / "again")) == 0
        assert len(built) == n_built
    finally:
        cli._parser.cache_clear()

    def record(out):
        rec = json.loads((tmp_path / out / "run.json").read_text())
        del rec["config"]["out"]
        return rec

    assert record("reduced")["config"]["horizon"] == 2.0
    assert record("again") == record("first")
    assert record("again")["config"]["horizon"] == 3.0
    for name in ("trajectory.csv", "events.csv"):
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "first" / name).read_bytes()), name
