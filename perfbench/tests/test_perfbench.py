"""Self-tests of the benchmark: tracer arithmetic, patch restoration, seeded
inputs, and that every output check rejects a deliberately perturbed output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

import plumefront as pf  # noqa: E402
from plumefront.montecarlo import ReplicationRecord  # noqa: E402


# -- tracer ------------------------------------------------------------------


def test_self_times_on_a_synthetic_call_tree():
    spans = [
        [0, "A", 0.0, 10.0, None, 0],
        [1, "B", 1.0, 4.0, 0, 0],
        [2, "C", 5.0, 9.0, 0, 0],
        [3, "D", 6.0, 7.0, 2, 0],
    ]
    aggregates = {
        (1, ("leaf",)): [3, 1.5],
        (1, ("leaf", "inner")): [2, 0.5],
        (None, ("leaf",)): [1, 0.25],
    }
    per_name, unattributed = self_times(spans, aggregates, wall=12.0)
    got = {name: (e["calls"], pytest.approx(e["self_s"])) for name, e in per_name.items()}
    assert got == {"A": (1, 3.0), "B": (1, 1.5), "C": (1, 3.0), "D": (1, 1.0),
                   "leaf": (4, 1.25), "inner": (2, 0.5)}
    assert unattributed == pytest.approx(1.75)
    total = sum(e["self_s"] for e in per_name.values()) + unattributed
    assert total == pytest.approx(12.0)


def test_tracer_attributes_nested_leaves_and_adds_up_to_wall():
    ticks = iter(range(1000))
    tracer = Tracer(layers.targets(), clock=lambda: float(next(ticks)))
    with tracer:
        start = tracer.clock()
        pf.boundary_radius(pf.BesselField(pf.FieldParams(nu=1.0, dim=2, source_pos=(0.0, 0.0)), 1.0),
                           pf.BoundarySpec(mode="absolute", tau_min=0.1), 1.0)
        wall = tracer.clock() - start
    per_name, unattributed = self_times(tracer.spans, tracer.aggregates, wall)
    paths = {path for _, path in tracer.aggregates}
    assert ("fields.BesselField.value", "specfun.bessel_k0") in paths
    assert per_name["functionals.boundary_radius"]["calls"] == 1
    assert sum(e["self_s"] for e in per_name.values()) + unattributed == pytest.approx(wall)


def _snapshot():
    mods = {n: m for n, m in sys.modules.items() if n == "plumefront" or n.startswith("plumefront.")}
    state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for n, m in mods.items():
        for k, v in vars(m).items():
            if isinstance(v, type) and v.__module__ == n:
                state.update({(n, k, a): f for a, f in vars(v).items()})
    return state


def test_every_patch_is_restored_after_a_traced_run():
    import plumefront.estimation as est
    import plumefront.montecarlo as mc

    before = _snapshot()
    original_fit = mc.nonparametric_fit
    with Tracer(layers.targets()) as tracer:
        assert mc.nonparametric_fit is not original_fit
        assert est.kummer_m is not before[("plumefront.estimation", "kummer_m")]
        wl = W.FieldFunctionals(0, BENCH / "out")
        wl.generate()
        wl.op(0)
    assert tracer.spans
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_fit_counts_iterations_and_records_kummer_arguments():
    r, t, y = pf.estimation.simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=1)
    tracer = Tracer(layers.targets())
    for name, checker in layers.ACCURACY.items():
        tracer.record_args(name, checker)
    with tracer:
        pf.select_profile_model(r, y, t, seed=1)
    assert tracer.counters["estimation.fit_field_nls.iters"] > 0
    assert 0.0 < tracer.max_rel_err["specfun.kummer_m"] < 1.0


def test_argument_check_runs_between_operations_outside_every_layer():
    wl = W.FieldFunctionals(0, BENCH / "out")
    tracer = Tracer(layers.targets())
    for name, checker in layers.ACCURACY.items():
        tracer.record_args(name, checker)
    with tracer:
        run.closed_loop(wl.op, count=2, tracer=tracer)
    checks = [s for s in tracer.spans if s[1] == "trace.argcheck"]
    assert len(checks) == 2 * len(layers.ACCURACY)
    assert all(parent is None for _, _, _, _, parent, _ in checks)
    assert 0.0 < tracer.max_rel_err["specfun.bessel_k0"] < 1e-9
    assert tracer.max_rel_err["specfun.kummer_m"] > 0.0


# -- seeded inputs -----------------------------------------------------------


def test_seed_regenerates_byte_identical_input_files(tmp_path):
    files = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        wl = W.CLIPipeline(seed, tmp_path / sub)
        wl.generate()
        files.append(b"".join(wl.paths[n].read_bytes() for n in ("sources", "observations")))
    assert files[0] == files[1]
    assert files[0] != files[2]


def test_seed_fixes_suite_parameters_and_list_order():
    a, b, c = W.suite_params(3, 7), W.suite_params(3, 7), W.suite_params(4, 7)
    assert a["nu"] == b["nu"] and np.array_equal(a["points"], b["points"])
    assert a["nu"] != c["nu"]
    orders = []
    for seed in (1, 1, 2):
        wl = W.ProfileFit(seed, BENCH / "out")
        wl.generate()
        orders.append([(kind, s) for kind, s, *_ in wl.items])
    assert orders[0] == orders[1] != orders[2]
    assert sorted(orders[0]) == sorted(orders[2])


# -- checks reject perturbed outputs -----------------------------------------


@pytest.fixture(scope="module")
def suite():
    params = W.suite_params(11, 0)
    return params, W.run_suite(params)


def test_suite_passes_unperturbed(suite):
    assert W.suite_problems(*suite) == []


@pytest.mark.parametrize("key, factor, label", [
    ("d_star", 1 + 1e-6, "boundary radius"),
    ("velocity", 1 + 1e-6, "boundary velocity"),
    ("sensitivity", 1 + 1e-6, "boundary sensitivity"),
    ("energy", 1 + 1e-5, "E = "),
    ("exposure_inf", 1 + 1e-5, "infinite-horizon exposure"),
    ("exposure_t", 1 + 1e-5, "exposure to t"),
    ("ode_radii", 1 + 1e-6, "ODE trajectory"),
    ("bessel_ode_radii", 1 + 1e-5, "Bessel ODE"),
    ("bessel_values", 1 + 1e-6, "Bessel values"),
    ("bessel_d_dr", 1 + 1e-6, "Bessel d/dr"),
    ("bessel_boundary", 1 + 1e-6, "Bessel absolute-threshold"),
    ("decaying_value", 1 + 1e-5, "decaying source ="),
    ("decaying_boundary", 1 + 1e-5, "decaying-source boundary"),
    ("steady_boundary", 1 + 1e-9, "steady-state"),
    ("superposed", 1 + 1e-9, "superposition"),
])
def test_suite_check_rejects_perturbation(suite, key, factor, label):
    params, out = suite
    bad = dict(out)
    bad[key] = out[key] * factor
    problems = W.suite_problems(params, bad)
    assert any(p.startswith(label) for p in problems), problems


@pytest.mark.parametrize("k", [0, 2, 4])
def test_suite_check_rejects_perturbed_moment(suite, k):
    params, out = suite
    bad = dict(out, moments={**out["moments"], k: out["moments"][k] * (1 + 1e-5)})
    assert any(p.startswith(f"M{k}") for p in W.suite_problems(params, bad))


def test_suite_check_rejects_broken_connection(suite):
    params, out = suite
    bad = dict(out, connection=[(a * (1 + 1e-6), b) for a, b in out["connection"]])
    assert any(p.startswith("M(1/2, 1, 2z)") for p in W.suite_problems(params, bad))


@pytest.fixture(scope="module")
def pipeline():
    sources, observations = W.make_pipeline_inputs(2)
    expected = W.expected_sample(sources, observations)
    header = "lat,lon,period,outcome,nearest_source_id,distance_km"
    rows = [f"{a:.10g},{b:.10g},{p},{o:.10g},{sid},{d:.10g}" for a, b, p, o, sid, d in expected]
    return expected, [header] + rows


def test_sample_check_accepts_the_brute_force_table(pipeline):
    expected, lines = pipeline
    assert W.sample_problems("\n".join(lines) + "\n", expected) == []


def test_sample_check_rejects_swapped_nearest_source(pipeline):
    expected, lines = pipeline
    i = 1 + next(i for i in range(1, len(expected)) if expected[i][4] != expected[0][4])
    head, first, other = lines[0], lines[1].split(","), lines[i].split(",")
    first[4], other[4] = other[4], first[4]
    bad = [head, ",".join(first)] + lines[2:i] + [",".join(other)] + lines[i + 1:]
    assert W.sample_problems("\n".join(bad) + "\n", expected)


def test_sample_check_rejects_distance_and_dropped_row(pipeline):
    expected, lines = pipeline
    cells = lines[1].split(",")
    cells[5] = f"{float(cells[5]) * 1.001:.10g}"
    assert W.sample_problems("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n", expected)
    assert W.sample_problems("\n".join(lines[:-1]) + "\n", expected)


def _estimate_text(kappa, reject="true"):
    return ("method,kappa_per_km,reject_null\n"
            f"loglinear,{kappa},none\nnonparametric,none,{reject}\n")


def test_estimate_check():
    assert W.estimate_problems(_estimate_text(W.KAPPA_TRUE * 1.005)) == []
    assert W.estimate_problems(_estimate_text(W.KAPPA_TRUE * 1.05))
    assert W.estimate_problems(_estimate_text(W.KAPPA_TRUE, reject="false"))


def test_cli_check_rejects_wrong_boundary_exit_code_and_decision(tmp_path):
    wl = W.CLIPipeline(2, tmp_path)
    wl.generate()
    expected = W.expected_sample(wl.sources_text, wl.observations_text)
    header = "lat,lon,period,outcome,nearest_source_id,distance_km"
    wl.paths["sample"].write_text("\n".join(
        [header] + [f"{a:.10g},{b:.10g},{p},{o:.10g},{sid},{d:.10g}"
                    for a, b, p, o, sid, d in expected]) + "\n")
    wl.paths["estimate"].write_text(_estimate_text(W.KAPPA_TRUE))
    good = [{"sub": "boundary", "code": 0, "stdout": W.CLI_BOUNDARY_EXPECTED + "\n", "stderr": ""},
            {"sub": "ingest", "code": 0, "stdout": "", "stderr": ""},
            {"sub": "estimate", "code": 0, "stdout": "", "stderr": ""},
            {"sub": "diagnose", "code": 0, "stdout": "", "stderr": "decision=framework_applies"}]

    def check(outputs):
        return wl.check([(k, wl.reduce(k, out), None) for k, out in enumerate(outputs)])[1]

    assert check(good) == []
    off = str(float(W.CLI_BOUNDARY_EXPECTED) * (1 + 1e-6))
    assert check([dict(good[0], stdout=off)] + good[1:])
    assert check(good[:1] + [dict(good[1], code=2)] + good[2:])
    assert check(good[:3] + [dict(good[3], stderr="decision=framework_rejected")])


def _record(dgp, method, seed, estimate, failed=False):
    return ReplicationRecord(dgp_id=dgp, method=method, rep=seed, seed=seed, estimate=estimate,
                             ci_lo=None, ci_hi=None, failed=failed)


def _mc_records(strong_shift=0.0, flat_hits=0):
    rng = np.random.default_rng(0)
    recs = []
    truth = {d: W.STANDARD_DGPS[d].true_boundary for d in W.DGP_ORDER}
    for s in range(40):
        recs += [_record("strong_decay", "nonparametric", s,
                         truth["strong_decay"] + 0.3 + strong_shift + rng.normal(0, 1.3)),
                 _record("strong_decay", "parametric", s, truth["strong_decay"] - 22),
                 _record("hump", "nonparametric", s, truth["hump"] + 6 + rng.normal(0, 2)),
                 _record("hump", "parametric", s, truth["hump"] + 700),
                 _record("flat", "nonparametric", s, 50.0 if s < flat_hits else None),
                 _record("flat", "parametric", s, None)]
    return recs


def test_mc_clauses_pass_and_reject_perturbations():
    assert all(W.mc_clauses(_mc_records()).values())
    assert not W.mc_clauses(_mc_records(strong_shift=2.0))["strong nonparametric rmse <= 2 km"]
    flat = W.mc_clauses(_mc_records(flat_hits=5))
    assert not flat["flat nonparametric false-positive rate <= 0.10"]
    hump = [r if not (r.dgp_id == "hump" and r.method == "parametric")
            else replace(r, estimate=W.STANDARD_DGPS["hump"].true_boundary) for r in _mc_records()]
    assert not W.mc_clauses(hump)["hump parametric rmse >= 2x nonparametric"]


def test_mc_replication_check_rejects_out_of_range_and_failed():
    recs = _mc_records()
    assert W.mc_replication_problems(recs) == []
    bad = recs[:]
    bad[0] = replace(bad[0], estimate=W.STANDARD_DGPS["strong_decay"].d_max * 1.01)
    bad[1] = replace(bad[1], failed=True, estimate=None)
    assert len(W.mc_replication_problems(bad)) == 1  # both belong to one replication
    bad[2] = replace(bad[2], estimate=0.0)
    assert len(W.mc_replication_problems(bad)) == 2


def test_profile_check():
    gauss = ("gaussian", 0)
    cyl = ("bessel", 100)
    ok_g = pf.ProfileSelection(model="gaussian", params={"nu": 1.01, "q": 1.0}, rss=1.0,
                               runs_z=0.0, lr_stat=None)
    ok_b = pf.ProfileSelection(model="bessel", params={"nu": 0.81, "amplitude": 0.7}, rss=1.0,
                               runs_z=None, lr_stat=None)
    assert W.profile_problems([gauss] * 20 + [cyl], [ok_g] * 20 + [ok_b]) == []
    off_b = replace(ok_b, params={"nu": 0.8 * 1.2, "amplitude": 0.7})
    assert W.profile_problems([cyl], [off_b])
    off_g = replace(ok_g, params={"nu": 1.06, "q": 1.0})
    assert W.profile_problems([gauss] * 20, [ok_g] * 18 + [off_g] * 2)


# -- harness -----------------------------------------------------------------


def test_closed_loop_stops_at_a_round_boundary():
    loop = run.closed_loop(lambda k: (2, k), seconds=0.0, round_size=3, reduce=lambda k, out: -out)
    assert [(k, out) for k, out, _ in loop.outputs] == [(0, 0), (1, -1), (2, -2)]
    assert loop.units == 6 and len(loop.latencies) == 3
    assert [len(p) for p in loop.by_position(3)] == [1, 1, 1]
    failing = run.closed_loop(lambda k: 1 / 0, count=2)
    assert [err is not None for _, _, err in failing.outputs] == [True, True]
    assert failing.units == 0 and failing.latencies == []


def test_paced_busy_time_uses_the_mean_reference_sample():
    loop = run.Loop(outputs=[], durations=[(1.0, 1)] * 3, wall=3.0,
                    pace=[(0, run.REF_NOMINAL_S), (2, 2 * run.REF_NOMINAL_S)])
    assert loop.busy_seconds(False) == pytest.approx(3.0)
    assert loop.busy_seconds(True) == pytest.approx(3.0 / 1.5)
    assert run.closed_loop(lambda k: (1, k), count=3, paced=True).pace[0][0] == 0


def test_latency_summary_tail_has_ten_samples_beyond_it():
    assert run.latency_summary([1.0] * 19)["tail_pct"] is None
    assert run.latency_summary(list(range(20)))["tail_pct"] == 50
    summary = run.latency_summary([i / 1000 for i in range(100)])
    assert summary["tail_pct"] == 90
    assert sum(v > summary["tail_ms"] / 1000 for v in [i / 1000 for i in range(100)]) >= 10


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "field_functionals",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
