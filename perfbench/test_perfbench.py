"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import signal
from pathlib import Path

import pytest

import run
import tracing

cli = run.import_cli()
from matprophet.matroids import Matroid  # noqa: E402  (needs import_cli)


def test_self_times_on_nested_spans():
    # [id, parent, op, name, start, end, count, key]
    spans = [
        [0, None, 0, "cli", 0.0, 10.0, None, None],
        [1, 0, 0, "a", 1.0, 4.0, None, None],
        [2, 1, 0, "b", 2.0, 3.0, None, None],
        [3, 0, 0, "c", 5.0, 9.0, None, None],
        [4, 3, 0, "d", 6.0, 8.0, None, None],
        [5, 3, 0, "e", 7.0, 9.5, None, None],  # overlaps d, ends past c
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.5})


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(1, 21)])
    assert value == 10.0 and pct == 50.0


def test_import_times_attribute_nested_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       json",
        "import time:      2000 |       2100 |     numpy",
        "import time:        50 |         50 |         fractions",
        "import time:      3000 |       3050 |       scipy.stats",
        "import time:       400 |       3450 |     matprophet.engine",
        "import time:        10 |         10 | os",
        "import time:        20 |       5580 | matprophet.cli",
    ])
    got = tracing.import_times(stderr)
    assert got == pytest.approx({"numpy": 0.0021, "scipy": 0.00305,
                                 "matprophet": 0.00042})


def _prepare(tmp_path, monkeypatch, name="exact-run", seed=3):
    monkeypatch.chdir(tmp_path)
    workload = run.WORKLOADS[name]
    run.generate(workload, seed, cli)
    return workload, run.op_argv(workload, seed)


def test_wrappers_removed_after_traced_run(tmp_path, monkeypatch):
    workload, argv = _prepare(tmp_path, monkeypatch)
    modules = tracing._package_modules()
    before = {(id(m), a): v for m in modules for a, v in vars(m).items()}
    methods = {c: dict(vars(c)) for c in (cli.GraphicRandomCut, Matroid)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[(id(cli), "main")]
        first = run.run_op(workload, argv, cli, None)
    finally:
        tracer.uninstall()
    assert first.ok
    assert {"cli", "kernels.exact_reduce", "engine.expected_rule_value"} \
        <= {rec[3] for rec in tracer.spans}
    after = {(id(m), a): v for m in modules for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for cls, attrs in methods.items():
        assert all(vars(cls)[a] is v for a, v in attrs.items())
    count = len(tracer.spans)
    again = run.run_op(workload, argv, cli, first.digest)
    assert again.ok and len(tracer.spans) == count


def _shape(path):
    inst = cli.load_instance(path).instance
    m = inst.matroid
    return (type(m).__name__, m.n, getattr(m, "num_vertices", None),
            getattr(m, "k", None), getattr(m, "capacities", None),
            tuple(d.size for d in inst.dists))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_changes_instances_not_shapes(tmp_path, monkeypatch, name):
    workload = run.WORKLOADS[name]
    docs, shapes = {}, {}
    for key in ((1, 0), (2, 0), (1, 1)):  # (seed, instance set)
        path = tmp_path / f"{key[0]}-{key[1]}"
        path.mkdir()
        monkeypatch.chdir(path)
        run.generate(workload, key[0], cli, key[1])
        files = [p for p, _ in workload.instances]
        docs[key] = [Path(p).read_text() for p in files]
        shapes[key] = [_shape(p) for p in files]
    assert shapes[1, 0] == shapes[2, 0] == shapes[1, 1]
    assert all(a != b for a, b in zip(docs[1, 0], docs[2, 0]))
    assert all(a != b for a, b in zip(docs[1, 0], docs[1, 1]))
    monkeypatch.chdir(tmp_path / "1-0")
    run.generate(workload, 1, cli)
    assert [Path(p).read_text() for p in files] == docs[1, 0]


def test_host_sampler_runs_only_during_operations(tmp_path, monkeypatch):
    workload, argv = _prepare(tmp_path, monkeypatch)
    handler = signal.getsignal(signal.SIGALRM)
    sampler = run.HostSampler()
    result = run.run_op(workload, argv, cli, None, sampler)
    assert result.ok and sampler.count > 0
    assert result.sample_s == pytest.approx(sampler.busy_s / sampler.count)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    again = run.run_op(workload, argv, cli, result.digest)
    assert again.ok and again.sample_s == 0.0


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    workload, argv = _prepare(tmp_path, monkeypatch)
    first = run.run_op(workload, argv, cli, None)
    assert first.ok

    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, rows: write_csv(path, rows[:-1]))
    corrupted = run.run_op(workload, argv, cli, first.digest)
    monkeypatch.setattr(cli, "_write_csv", write_csv)
    assert not corrupted.ok
    assert corrupted.reason == "output differs from the first repetition"

    summary = Path("out/run.summary.json")
    doc = json.loads(summary.read_text())
    doc["ratio"] = 0.01
    summary.write_text(json.dumps(doc))
    reason, _, _ = run.check_op(workload, argv, 0, "", first.digest)
    assert reason == "ratio below 1/32"

    summary.unlink()
    reason, _, _ = run.check_op(workload, argv, 0, "", first.digest)
    assert reason == "output file missing"

    results = [first, corrupted, run.run_op(workload, argv, cli,
                                            first.digest)]
    assert sum(not r.ok for r in results) / len(results) == \
        pytest.approx(1 / 3)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.SRC.parent / "BENCHMARK.json").read_text())
    op = run.OpResult(1.0, True, "", "", 1, sample_s=0.002)
    imports = {f"setup.import_{pkg}_s": 0.1
               for pkg in tracing.import_times("")}
    layers = run.per_layer([op], [op], tracing.Tracer(), imports)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layers.items()]
    e2e = run.end_to_end(run.WORKLOADS["exact-run"], [op], 1, [1.0], [op])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in e2e.items()]
