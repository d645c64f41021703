"""Tests of the benchmark itself: run with ``python3 -m pytest mdegbench``."""

import json
import sys
import time

import pytest

import jobs
import run
import tracing

sys.path.insert(0, str(run.SRC))

import mdeg  # noqa: E402
import mdeg.cli  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


def test_tracer_wraps_every_binding_site(tracer):
    assert tracing.installed_wrappers() == []
    # names bound by `from .x import y`, and the package's re-exports
    sites = ("mdeg.genin.substituted_ideal", "mdeg.standardize.gin",
             "mdeg.hilbert.saturate_irrelevant", "mdeg.cli.parse_input",
             "mdeg.gin_structure_report")
    originals = {site: getattr(sys.modules[site.rsplit(".", 1)[0]], site.rsplit(".", 1)[1])
                 for site in sites}
    tracer.install()
    assert tracer.stale_bindings() == []
    for site, fn in originals.items():
        owner, attr = site.rsplit(".", 1)
        module = sys.modules[owner]
        assert getattr(module, attr) is not fn, site
        assert getattr(getattr(module, attr), "__wrapped__") is fn, site
    wrapped = tracing.installed_wrappers()
    assert "mdeg.monomial.MonomialIdeal.intersect" in wrapped
    assert "mdeg.ring.Polynomial.__mul__" in wrapped
    tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert mdeg.genin.substituted_ideal is originals["mdeg.genin.substituted_ideal"]


def test_self_and_busy_time_on_a_synthetic_span_tree(tracer, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])

    def tick(dt):
        now[0] += dt

    def leaf():
        tick(3)

    def root():
        tick(1)
        wleaf()
        tick(2)
        wleaf()
        tick(1)

    def rec(n):
        tick(1)
        if n:
            wrec(n - 1)
        tick(1)

    wleaf = tracer._span_wrapper("t.leaf", leaf)
    wroot = tracer._span_wrapper("t.root", root)
    wrec = tracer._span_wrapper("t.rec", rec)
    wroot()
    wrec(2)
    m = tracer.layer_metrics()
    assert (m["t.root.calls"], m["t.root.busy_s"], m["t.root.self_s"]) == (1, 10, 4)
    assert (m["t.leaf.calls"], m["t.leaf.busy_s"], m["t.leaf.self_s"]) == (2, 6, 6)
    # recursion: busy counts the outermost span only, self time each level's own
    assert (m["t.rec.calls"], m["t.rec.busy_s"], m["t.rec.self_s"]) == (3, 6, 6)
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 4]
    half = tracer.layer_metrics(passes=2)
    assert half["t.root.self_s"] == 2


def test_traced_pass_attributes_work_and_counts_repeat(tracer):
    job_list = jobs.build("gin-structure", 0, run.WORK / "test")
    expected = json.loads(run.EXPECTED.read_text())["gin-structure"]
    runner = run.Runner(job_list, expected, time.perf_counter() + 600, tracer)
    tracer.install()
    try:
        runner.run_pass()
        runner.run_pass()
    finally:
        tracer.uninstall()
    assert runner.failures == []
    m = tracer.layer_metrics(passes=2)
    assert m["cli.main.calls"] == len(job_list)
    assert m["monomial.MonomialIdeal.intersect.calls"] == int(m["monomial.MonomialIdeal.intersect.calls"])
    assert m["genin.gin.calls"] > 0 and m["groebner.substituted_ideal.terms_out"] > 0
    assert set(tracer.job_of) == set(range(2 * len(job_list)))


def test_untraced_run_installs_no_wrapper(capsys):
    assert run.main(["--workload", "gin-structure", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "max_job_s", "setup_s", "peak_rss_mb"}
    assert tracing.installed_wrappers() == []


def test_traced_run_reports_the_declared_per_layer_metrics(capsys):
    assert run.main(["--workload", "gin-structure", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert [m["unit"] for m in declared] == [m["unit"] for m in result["metrics"].values()]
    assert result["metrics"]["monomial.MonomialIdeal.intersect.calls"]["value"] > 0
    assert tracing.installed_wrappers() == []


def test_job_over_budget_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "JOB_BUDGET_S", 0.05)
    job_list = [j for j in jobs.build("threefold-qq", 0, run.WORK / "test") if j.name == "geom P"]
    expected = json.loads(run.EXPECTED.read_text())["threefold-qq"]
    runner = run.Runner(job_list, expected, time.perf_counter() + 600)
    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    assert runner.run_job(job_list[0]) is None
    assert runner.failures == ["geom P: over the 0 s budget"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_two_seeds_give_identical_normalized_outputs(workload):
    expected = json.loads(run.EXPECTED.read_text())[workload]
    outputs = []
    for seed in (11, 12):
        got = {}
        for job in jobs.build(workload, seed, run.WORK / f"test-{seed}"):
            rc, out = run.run_stages(mdeg.cli, job.stages)
            assert rc == 0, job.name
            got[job.name] = jobs.normalized(job, out)
        outputs.append(got)
    assert outputs[0] == outputs[1] == expected


def test_stored_ideals_match_the_program():
    from mdeg.groebner import contract
    from mdeg.inputlang import parse_input

    rng = jobs.random.Random(0)
    P = parse_input(jobs.ring_text(jobs.FP, jobs.P_BLOCKS, "P", jobs.P_GENS, rng)).ideal("P")
    assert set(P.initial_ideal().gens) == set(jobs.IN_P)
    for J in ((1, 2), (1, 3), (2, 3)):
        job = next(j for j in jobs.build("gin-structure", 0, run.WORK / "test")
                   if j.name == "gin-report P_" + "".join(map(str, J)))
        PJ = parse_input(open(job.stages[0][1]).read()).ideal("P")
        want = contract(P, list(J))
        assert PJ.ring == want.ring and PJ == want
