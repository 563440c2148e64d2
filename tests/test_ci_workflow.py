"""Tier-1 validation of the GitHub Actions pipeline.

The acceptance bar for the CI satellite is "passes a local act-style dry
run or syntax validation"; this is the syntax-validation half, kept in
tier 1 so the workflow cannot drift from the repo it tests:

* the YAML parses and has the structural shape Actions expects;
* the tier-1 job runs the exact ROADMAP tier-1 command, with coverage
  collected and uploaded as an artifact;
* the slow and fuzz jobs are gated off plain pushes (schedule /
  dispatch / label), and the fuzz job echoes its Hypothesis seed so a
  failure reproduces locally;
* the benchmark smoke step and its artifact upload stay wired to a
  script entry point that actually exists and stays runnable.
"""

from __future__ import annotations

from pathlib import Path

import yaml

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def load_workflow() -> dict:
    data = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert isinstance(data, dict), "workflow must be a YAML mapping"
    return data


def all_run_lines(job: dict) -> str:
    return "\n".join(
        step.get("run", "") for step in job["steps"] if isinstance(step, dict)
    )


def test_workflow_parses_and_has_required_jobs():
    data = load_workflow()
    assert data.get("name")
    # PyYAML parses the bare `on:` key as boolean True.
    triggers = data.get("on", data.get(True))
    assert isinstance(triggers, dict)
    assert "push" in triggers and "pull_request" in triggers
    assert "schedule" in triggers
    crons = [entry.get("cron") for entry in triggers["schedule"]]
    assert all(isinstance(cron, str) and len(cron.split()) == 5 for cron in crons)
    jobs = data["jobs"]
    assert {"tier1", "lint", "slow", "fuzz"} <= set(jobs)
    for name, job in jobs.items():
        assert job.get("runs-on"), f"job {name} has no runner"
        assert isinstance(job.get("steps"), list) and job["steps"], name
        assert job.get("timeout-minutes"), f"job {name} has no timeout"
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)


def test_tier1_job_runs_the_roadmap_command():
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["tier1"])
    # The exact tier-1 verify command from ROADMAP.md.
    assert "PYTHONPATH=src python -m pytest -x -q" in runs
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in roadmap


def test_tier1_pip_cache_is_keyed_on_setup_py():
    jobs = load_workflow()["jobs"]
    setup_steps = [
        step
        for step in jobs["tier1"]["steps"]
        if "setup-python" in step.get("uses", "")
    ]
    assert setup_steps, "tier1 must use actions/setup-python"
    with_block = setup_steps[0]["with"]
    assert with_block.get("cache") == "pip"
    assert with_block.get("cache-dependency-path") == "setup.py"
    assert (REPO_ROOT / "setup.py").exists()


def test_bench_smoke_step_and_artifact():
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["tier1"])
    assert "benchmarks/bench_table1.py" in runs and "--smoke" in runs
    assert "--json" in runs
    uploads = [
        step
        for step in jobs["tier1"]["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]
    assert any(
        "bench-smoke.json" in step["with"]["path"] for step in uploads
    ), "tier1 must upload the benchmark record"
    # The script entry the workflow calls must exist and stay arg-parsable.
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import bench_table1

        assert callable(bench_table1.main)
        assert callable(bench_table1.run_smoke)
    finally:
        sys.path.pop(0)


def test_incremental_smoke_step_and_artifact():
    """The single-edit incremental latency record rides next to the
    bench-smoke artifact on every commit."""
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["tier1"])
    assert "benchmarks/bench_incremental.py" in runs and "--smoke" in runs
    assert "bench-incremental.json" in runs
    uploads = [
        step
        for step in jobs["tier1"]["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]
    assert any(
        "bench-incremental.json" in step["with"]["path"] for step in uploads
    ), "tier1 must upload the incremental benchmark record"
    # The script entry the workflow calls must exist and stay arg-parsable.
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import bench_incremental

        assert callable(bench_incremental.main)
        assert callable(bench_incremental.run_smoke)
    finally:
        sys.path.pop(0)


def test_tier1_runs_traced_edit_serve_and_uploads_its_record():
    """Every commit drives the store merge-save path and the benchmark's
    tracing hooks end to end; a wrong verdict fails the step."""
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["tier1"])
    assert (
        "python3 perfbench/run.py --workload edit-serve "
        "--seed 1 --seconds 1 --trace 1"
    ) in runs
    uploads = [
        step
        for step in jobs["tier1"]["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]
    assert any(
        step["with"]["path"] == ".perfbench/results/"
        and step["with"]["name"] == "perfbench-edit-serve-${{ github.sha }}"
        for step in uploads
    ), "tier1 must upload the perfbench edit-serve record"
    assert (REPO_ROOT / "perfbench" / "run.py").exists()


def test_tier1_reports_src_line_delta_on_pull_requests():
    """A PR's job summary carries its ``src/`` line delta against the base
    commit, which the checkout must fetch enough history to reach."""
    steps = load_workflow()["jobs"]["tier1"]["steps"]
    checkout = next(step for step in steps if "checkout" in step.get("uses", ""))
    assert checkout.get("with", {}).get("fetch-depth") == 0
    [delta] = [step for step in steps if "--shortstat" in step.get("run", "")]
    assert delta.get("if") == "github.event_name == 'pull_request'"
    assert delta["env"]["BASE_SHA"] == "${{ github.event.pull_request.base.sha }}"
    assert 'git diff --shortstat "$BASE_SHA" HEAD -- src/' in delta["run"]
    assert "$GITHUB_STEP_SUMMARY" in delta["run"]
    # It runs before the test suite, so a failing suite still reports it.
    pytest_step = next(step for step in steps if "pytest" in step.get("run", ""))
    assert steps.index(delta) < steps.index(pytest_step)


def test_lint_job_runs_ruff_with_committed_config():
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["lint"])
    assert "ruff check" in runs
    assert "ruff format --check" in runs
    assert (REPO_ROOT / "ruff.toml").exists(), "ruff config must be committed"
    # Since the one-shot format commit the format check is blocking: no
    # step of the lint job may swallow its failure.
    for step in jobs["lint"]["steps"]:
        assert not step.get("continue-on-error"), step


def test_slow_job_is_gated():
    jobs = load_workflow()["jobs"]
    slow = jobs["slow"]
    condition = slow.get("if", "")
    assert "schedule" in condition
    assert "run-slow" in condition
    assert "pull_request" in condition
    assert slow.get("needs") == "tier1"
    assert "-m slow" in all_run_lines(slow)


def test_slow_job_runs_loadgen_smoke_and_uploads_latency_record():
    """The nightly front-door load harness: smoke run + JSON artifact so
    latency percentiles (p50/p95/p99) are tracked per night."""
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["slow"])
    assert "benchmarks/load_harness.py" in runs and "--smoke" in runs
    assert "loadgen-smoke.json" in runs
    uploads = [
        step
        for step in jobs["slow"]["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]
    assert any(
        "loadgen-smoke.json" in step["with"]["path"] for step in uploads
    ), "slow job must upload the load-harness record"
    # The script entry the workflow calls must exist and stay importable.
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import load_harness

        assert callable(load_harness.main)
    finally:
        sys.path.pop(0)


def test_tier1_collects_and_uploads_coverage():
    jobs = load_workflow()["jobs"]
    runs = all_run_lines(jobs["tier1"])
    installs = [line for line in runs.splitlines() if "pip install" in line]
    assert any("pytest-cov" in line for line in installs)
    assert "--cov=repro" in runs
    assert "coverage.xml" in runs
    uploads = [
        step
        for step in jobs["tier1"]["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]
    assert any(
        "coverage.xml" in step["with"]["path"] for step in uploads
    ), "tier1 must upload the coverage report"


def test_fuzz_job_is_gated_and_reproducible():
    """The deep fuzz runs nightly (like slow), never on plain pushes, and
    must echo its Hypothesis seed so a failure reproduces locally."""
    jobs = load_workflow()["jobs"]
    fuzz = jobs["fuzz"]
    condition = fuzz.get("if", "")
    assert "schedule" in condition
    assert "workflow_dispatch" in condition
    assert "run-fuzz" in condition
    assert fuzz.get("needs") == "tier1"
    runs = all_run_lines(fuzz)
    assert "-m fuzz" in runs
    assert "--hypothesis-seed" in runs
    # The seed is printed before pytest runs, so the log always carries it.
    assert "echo" in runs and "SEED" in runs
    # A failing run persists its shrunk regressions as an artifact.
    uploads = [
        step for step in fuzz["steps"] if "upload-artifact" in step.get("uses", "")
    ]
    assert uploads and uploads[0].get("if") == "failure()"
    assert "regressions" in uploads[0]["with"]["path"]
    # The fuzz marker the job selects is registered in pytest.ini, and
    # tier 1 deselects it.
    pytest_ini = (REPO_ROOT / "pytest.ini").read_text(encoding="utf-8")
    assert "fuzz:" in pytest_ini
    assert "not slow and not fuzz" in pytest_ini


def test_workflow_expressions_are_balanced():
    """Cheap guard against the classic broken-`${{`-interpolation commit."""
    text = WORKFLOW.read_text(encoding="utf-8")
    assert text.count("${{") == text.count("}}")
    for line in text.splitlines():
        assert "\t" not in line, "YAML must not contain tabs"
