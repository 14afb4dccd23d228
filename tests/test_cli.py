"""Instance files and the command line front end."""

import contextlib
import csv
import json
import re

import numpy as np
import pytest

from matprophet import (EnumerationCapError, GraphicMatroid, Orientation,
                        PartitionMatroid, ProphetInstance, UniformMatroid,
                        bernoulli_to_dict, cut_bound_exact, cut_objective,
                        derandomize_cut, load_instance, parse_instance,
                        save_instance)
from matprophet import engine, generate, kernels, reduction
from matprophet.cli import (CSV_CHUNK, CSV_HEADER, _fmt, _fmt_floats, main,
                            make_algorithm)
from matprophet.distributions import DiscreteDistribution
from matprophet.engine import LOW_SAMPLE_FLOOR, monte_carlo_ratio, safe_ratio
from matprophet.generate import random_distribution, random_graphic_instance
from oracles import rank


def test_round_trip_graphic(tmp_path):
    rng = np.random.default_rng(1)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
    path = tmp_path / "inst.json"
    save_instance(path, inst)
    loaded = load_instance(path)
    assert not loaded.is_bernoulli
    got = loaded.instance
    assert isinstance(got.matroid, GraphicMatroid)
    assert got.matroid.edges == inst.matroid.edges
    assert got.matroid.num_vertices == inst.matroid.num_vertices
    for a, b in zip(got.dists, inst.dists):
        assert a.values.tolist() == b.values.tolist()
        assert a.probs.tolist() == b.probs.tolist()


def test_round_trip_other_families(tmp_path):
    coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    for m in (UniformMatroid(3, 2), PartitionMatroid([(0, 1), (2,)], [1, 1])):
        inst = ProphetInstance(m, [coin] * 3)
        path = tmp_path / "m.json"
        save_instance(path, inst)
        got = load_instance(path).instance
        assert type(got.matroid) is type(m)
        assert rank(got.matroid, range(3)) == rank(m, range(3))


def test_round_trip_bernoulli(tmp_path):
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "b.json"
    save_instance(path, bernoulli_to_dict(g, [0.5, 0.5, 0.375],
                                          [2.0, 1.5, 1.0]))
    loaded = load_instance(path)
    assert loaded.is_bernoulli
    assert loaded.declared_p.tolist() == [0.5, 0.5, 0.375]
    assert loaded.declared_t.tolist() == [2.0, 1.5, 1.0]
    # the induced instance holds the matching two-point distributions
    d = loaded.instance.dists[0]
    assert d.values.tolist() == [0.0, 2.0]
    assert d.probs.tolist() == [0.5, 0.5]


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_instance({"version": 99})
    with pytest.raises(ValueError):
        parse_instance({"version": 1, "matroid": {"family": "graphic",
                                                  "num_vertices": 2,
                                                  "edges": [[0, 1]]}})
    doc = {
        "version": 1,
        "matroid": {"family": "uniform", "n": 1, "k": 1},
        "distributions": [{"values": [1.0], "probs": [1.0]}],
        "bernoulli": {"p": [0.5], "t": [1.0]},
    }
    with pytest.raises(ValueError):
        parse_instance(doc)  # both sections at once


def test_parse_names_the_malformed_field():
    uniform = {"type": "uniform", "n": 1, "k": 1}
    cases = [
        ({"matroid": {"type": "graphic"}, "distributions": []},
         "num_vertices"),
        ({"matroid": uniform, "distributions": 5}, "distributions"),
        ({"matroid": uniform, "distributions": [{"support": [1.0]}]},
         "probs"),
        ({"matroid": uniform, "bernoulli": {"p": [0.5]}}, "'t'"),
        ({"matroid": {"type": "graphic", "num_vertices": 2, "edges": 5},
          "distributions": []}, "matroid"),
    ]
    for doc, field in cases:
        with pytest.raises(ValueError, match=field):
            parse_instance({"version": 1, **doc})


def test_malformed_instance_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "matroid": {"type": "graphic"},
                                "distributions": []}))
    assert run_cli("run", "--instance", path, "--algo", "graphic-random-cut",
                   "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "num_vertices" in err
    assert "Traceback" not in err


def test_non_integral_matroid_sizes_exit_cleanly(tmp_path, capsys):
    # int() would truncate each of these to a matroid the file never
    # declared (the first one then indexed past its vertices)
    docs = [
        ({"type": "graphic", "num_vertices": 3.5, "edges": [[0, 3]]},
         "num_vertices"),
        ({"type": "uniform", "n": 2, "k": 1.5}, "k"),
        ({"type": "partition", "blocks": [[0, 1]], "capacities": [1.7]},
         "capacity"),
    ]
    path = tmp_path / "bad.json"
    for matroid, field in docs:
        n = len(matroid.get("edges", [[0, 1], [1, 2]]))
        path.write_text(json.dumps({"version": 1, "matroid": matroid,
                                    "bernoulli": {"p": [0.5] * n,
                                                  "t": [1.0] * n}}))
        for argv in (["reduce"], ["run", "--algo", "graphic-random-cut"]):
            assert run_cli(*argv, "--instance", path,
                           "--out", tmp_path / "o") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: matroid {field} must be an "
                                  "integer")
            assert "Traceback" not in err
    # numpy integers are integers
    g = GraphicMatroid(np.int64(3), [(np.int32(0), np.int64(2))])
    assert (g.num_vertices, g.edges) == (3, ((0, 2),))
    assert UniformMatroid(np.int64(3), np.int8(2)).k == 2
    p = PartitionMatroid([np.arange(2)], [np.int64(1)])
    assert (p.blocks, p.capacities) == (((0, 1),), (1,))


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "--family", "graphic", "--vertices", 4,
                   "--edges", 4, "--seed", 5, "--out", a) == 0
    assert run_cli("gen", "--family", "graphic", "--vertices", 4,
                   "--edges", 4, "--seed", 5, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli("gen", "--family", "uniform", "--n", 3, "--k", 2,
                   "--out", tmp_path / "u.json") == 0
    assert run_cli("gen", "--family", "partition", "--blocks", "2,2",
                   "--capacities", "1,2", "--out", tmp_path / "p.json") == 0


def test_run_exact_and_outputs(tmp_path):
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 4, "--edges", 5,
            "--seed", 3, "--out", inst_path)
    out = tmp_path / "res"
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-random-cut", "--mode", "exact",
                   "--out", out) == 0
    summary = json.loads((tmp_path / "res.summary.json").read_text())
    assert summary["ratio"] >= 1.0 / 32.0
    assert summary["prophet_value"] > 0
    assert len(summary["p"]) == 5
    assert "orientation_heads" in summary
    with open(tmp_path / "res.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["alg_value"]) == summary["alg_value"]


def test_run_mc_csv_is_reproducible(tmp_path):
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 4, "--edges", 4,
            "--seed", 8, "--out", inst_path)
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        # few trials also prove the crude-interval warning reaches the user
        with pytest.warns(UserWarning, match="trials"):
            assert run_cli("run", "--instance", inst_path, "--algo",
                           "graphic-random-cut", "--mode", "mc",
                           "--trials", 400, "--seed", 12, "--out", out) == 0
        outs.append((tmp_path / f"{tag}.csv").read_bytes())
    assert outs[0] == outs[1]
    with open(tmp_path / "x.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["trial", "seed", "order_tag",
                                     "alg_value", "prophet_value", "ratio",
                                     "accepted_edges", "degenerate"]
        rows = list(reader)
    assert len(rows) == 400
    # per-trial ratios recompute from their own columns
    r0 = rows[0]
    if float(r0["prophet_value"]) > 0:
        assert float(r0["ratio"]) == pytest.approx(
            float(r0["alg_value"]) / float(r0["prophet_value"]), abs=1e-12)


def oracle_csv(seed, order_tag, alg_vals, pro_vals, accepted):
    """The CSV a Monte Carlo run writes, built one row at a time."""
    lines = [CSV_HEADER]
    for tr in range(len(alg_vals)):
        r, dg = safe_ratio(float(alg_vals[tr]), float(pro_vals[tr]))
        acc = ";".join(str(e) for e in np.flatnonzero(accepted[tr]))
        lines.append(",".join((str(tr), str(seed), order_tag,
                               _fmt(alg_vals[tr]), _fmt(pro_vals[tr]),
                               _fmt(r), acc, "1" if dg else "0")))
    return ("\n".join(lines) + "\n").encode()


def test_mc_csv_matches_per_row_oracle(tmp_path):
    rng = np.random.default_rng(41)

    def sparse():
        # often worth nothing, so some trials have prophet value 0 and
        # accept nothing; unrounded values otherwise
        return DiscreteDistribution([0.0, *np.sort(rng.random(2)) * 10.0],
                                    [0.6, 0.25, 0.15])

    g = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    uniform = ProphetInstance(UniformMatroid(4, 2),
                              [sparse() for _ in range(4)])
    # the uniform case's trials cross two CSV chunk boundaries
    cases = [(ProphetInstance(g, [sparse() for _ in range(g.n)]),
              "graphic-random-cut", 300),
             (uniform, "kuniform-prob", 2 * CSV_CHUNK + 3)]
    seed = 7
    degenerate = empty = 0
    for case, (inst, name, trials) in enumerate(cases):
        inst_path = tmp_path / f"i{case}.json"
        save_instance(inst_path, inst)
        for order in ("worst-case", "random"):
            out = tmp_path / f"{case}-{order}"
            with (pytest.warns(UserWarning) if trials < LOW_SAMPLE_FLOOR
                  else contextlib.nullcontext()):
                assert run_cli("run", "--instance", inst_path, "--algo", name,
                               "--mode", "mc", "--trials", trials, "--seed",
                               seed, "--order", order, "--out", out) == 0
                _, algo = make_algorithm(inst, name, mode="mc",
                                         trials=trials, seed=seed)
                _, alg, pro, acc = monte_carlo_ratio(
                    inst, algo, trials, seed=seed,
                    order=order.replace("-", "_"), return_trials=True)
            want = oracle_csv(seed, order, alg, pro, acc)
            assert out.with_suffix(".csv").read_bytes() == want
            degenerate += int((pro == 0).sum())
            empty += int((~acc.any(axis=1)).sum())
    assert degenerate > 0 and empty > degenerate


def test_float_text_equals_repr():
    """_fmt_floats formats each distinct value once, told apart by its
    bits: 0.0 and -0.0 keep their own text, as do NaN and the infinities."""
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310,
                  0.1, -0.0, 0.1, 1.0 / 3.0, 0.0, np.nan, 1.0 / 3.0, 2.5])
    assert _fmt_floats(x) == [repr(float(v)) for v in x]
    assert _fmt_floats(x[:0]) == []


def test_run_baseline_summary(tmp_path):
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 4, "--k", 1, "--seed", 2,
            "--out", inst_path)
    out = tmp_path / "sc"
    assert run_cli("run", "--instance", inst_path, "--algo", "samuel-cahn",
                   "--mode", "exact", "--out", out) == 0
    summary = json.loads((tmp_path / "sc.summary.json").read_text())
    assert summary["ratio"] >= 0.5 - 1e-9
    assert summary["threshold"]["method"] == "samuel-cahn"


def test_exact_mode_samples_nothing(tmp_path, monkeypatch, capsys):
    """run --mode exact and verify never reach a Monte Carlo pass: with the
    sampler and both Monte Carlo kernels raising, they still exit 0 and
    write their outputs."""
    def never(*args, **kwargs):
        raise AssertionError("an exact command reached a Monte Carlo pass")

    for owner, name in ((kernels, "mc_max_weight"),
                        (kernels, "mc_online_graphic"),
                        (reduction, "sample_value_matrix"),
                        (engine, "sample_value_matrix")):
        monkeypatch.setattr(owner, name, never)
    suite = tmp_path / "suite"
    for name, flags in (("g", ("--family", "graphic", "--vertices", 5,
                               "--edges", 7, "--allow-parallel")),
                        ("u", ("--family", "uniform", "--n", 6, "--k", 2)),
                        ("p", ("--family", "partition", "--blocks", "2,3",
                               "--capacities", "1,2"))):
        assert run_cli("gen", *flags, "--seed", 4,
                       "--out", suite / f"{name}.json") == 0
    for name, algo in (("g", "graphic-random-cut"),
                       ("g", "graphic-derandomized"), ("u", "kuniform-prob")):
        out = tmp_path / algo
        assert run_cli("run", "--instance", suite / f"{name}.json",
                       "--algo", algo, "--mode", "exact", "--out", out) == 0
        assert json.loads((tmp_path / f"{algo}.summary.json").read_text())
        assert (tmp_path / f"{algo}.csv").read_text()
    capsys.readouterr()
    assert run_cli("verify", "--suite", suite) == 0
    assert "all checks passed" in capsys.readouterr().out
    # the patches bite: a Monte Carlo run reaches them
    with pytest.raises(AssertionError, match="Monte Carlo pass"):
        run_cli("run", "--instance", suite / "g.json", "--algo",
                "graphic-random-cut", "--mode", "mc", "--out", tmp_path / "mc")


def test_reduce_and_orient(tmp_path, capsys):
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 4, "--edges", 5,
            "--seed", 3, "--out", inst_path)
    capsys.readouterr()
    assert run_cli("reduce", "--instance", inst_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["priced_bound"] >= doc["prophet_value"] - 1e-9
    assert doc["feasibility_slack"] >= -1e-9
    assert sorted(doc["worst_case_order"]) == list(range(5))
    assert run_cli("orient", "--instance", inst_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_in_mass"] <= 0.5 + 1e-12
    assert np.allclose(np.array(doc["p_scaled"]), np.array(doc["p"]) / 4.0)


def test_exit_codes(tmp_path, monkeypatch):
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 3, "--k", 1, "--seed", 1,
            "--out", inst_path)
    # wrong matroid family for the cut construction
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-random-cut", "--mode", "exact",
                   "--out", tmp_path / "o") == 1
    assert run_cli("orient", "--instance", inst_path) == 1
    # missing file
    assert run_cli("run", "--instance", tmp_path / "nope.json", "--algo",
                   "samuel-cahn", "--out", tmp_path / "o") == 1
    # enumeration cap: it limits a graphic instance; a uniform one is
    # counted, not enumerated
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 3, "--edges", 3,
            "--seed", 1, "--out", graph_path)
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "2")
    assert run_cli("reduce", "--instance", graph_path) == 2
    assert run_cli("reduce", "--instance", inst_path) == 0
    # random order cannot be computed exactly
    assert run_cli("run", "--instance", inst_path, "--algo", "samuel-cahn",
                   "--mode", "exact", "--order", "random",
                   "--out", tmp_path / "o") == 1
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--no-such-flag")
    assert err.value.code == 1


def test_cap_values_from_outside_are_checked(tmp_path, capsys,
                                             monkeypatch):
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 3, "--edges", 3,
            "--seed", 1, "--out", inst_path)
    capsys.readouterr()
    for bad in ("abc", "-1", "1.5"):
        monkeypatch.setenv("MATPROPHET_ENUM_CAP", bad)
        assert run_cli("reduce", "--instance", inst_path) == 1
        assert capsys.readouterr().err == (
            "error: MATPROPHET_ENUM_CAP must be a nonnegative integer, "
            f"got '{bad}'\n")
    monkeypatch.delenv("MATPROPHET_ENUM_CAP")

    def never(*args, **kwargs):
        raise AssertionError("the instance was loaded before the arguments "
                             "were checked")

    monkeypatch.setattr("matprophet.cli.load_instance", never)
    for argv in (("run", "--algo", "graphic-random-cut", "--out",
                  tmp_path / "o", "--instance", inst_path),
                 ("reduce", "--instance", inst_path),
                 ("orient", "--instance", inst_path),
                 ("verify", "--suite", inst_path)):
        # the budget has one source, the variable: --cap is a usage error
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--cap", 5)
        assert err.value.code == 1
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_out_directories_are_created(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--family", "graphic", "--vertices", 3,
                   "--edges", 3, "--seed", 1, "--out", "in/g.json") == 0
    assert run_cli("run", "--instance", "in/g.json", "--algo",
                   "graphic-random-cut", "--out", "sub/dir/x") == 0
    assert (tmp_path / "sub" / "dir" / "x.csv").is_file()
    assert (tmp_path / "sub" / "dir" / "x.summary.json").is_file()
    for cmd in ("reduce", "orient"):
        out = tmp_path / cmd / "x.json"
        assert run_cli(cmd, "--instance", "in/g.json", "--out", out) == 0
        assert json.loads(out.read_text())["p"]


def test_gen_refuses_a_negative_edge_count(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("gen", "--family", "graphic", "--edges", -2,
                   "--out", out) == 1
    assert "edge count must be nonnegative, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_gen_refuses_a_value_max_without_room(tmp_path, capsys,
                                             monkeypatch):
    # the first two once redrew forever, the others ended in a traceback
    for support, value_max in (("3", "0.001"), ("2", "0"), ("3", "nan"),
                               ("2", "inf"), ("2", "1e306")):
        out = tmp_path / "g.json"
        assert run_cli("gen", "--family", "uniform", "--n", 3,
                       "--support-size", support, "--value-max", value_max,
                       "--out", out) == 1
        assert "value max" in capsys.readouterr().err
        assert not out.exists()
    # a grid point reachable only from a sliver below value_max: the
    # redraws stop
    monkeypatch.setattr(generate, "MAX_REDRAWS", 50)
    with pytest.raises(ValueError, match="in 50 draws$"):
        random_distribution(np.random.default_rng(0), 3, 0.0015000001)
    # the smallest grid with room still draws
    d = random_distribution(np.random.default_rng(0), 2, 0.001)
    assert d.values.tolist() == [0.0, 0.001]


def test_gen_refuses_a_support_that_is_almost_never_distinct(tmp_path,
                                                             capsys):
    # 20,000 values on a grid of 10^6 points: a draw is distinct with
    # probability below e^-199, so the redraws are refused before any is
    # made, where they once ran for half a minute
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="almost never distinct"):
        random_distribution(rng, 20000, 1000.0)
    assert rng.bit_generator.state == state
    out = tmp_path / "u.json"
    assert run_cli("gen", "--family", "uniform", "--n", 1, "--support-size",
                   20000, "--value-max", 1000, "--out", out) == 1
    assert "almost never distinct" in capsys.readouterr().err
    assert not out.exists()


def test_exact_random_order_is_refused_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 4, "--edges", 5,
            "--seed", 2, "--out", inst_path)
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("work began before --order was checked")

    monkeypatch.setattr("matprophet.cli.load_instance", never)
    monkeypatch.setattr("matprophet.cli.make_algorithm", never)
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "1")
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-random-cut", "--mode", "exact", "--order",
                   "random", "--out", tmp_path / "o") == 1
    assert "exact mode needs the worst-case order" in capsys.readouterr().err


def test_baseline_family_is_checked_before_the_reduction(tmp_path, capsys,
                                                        monkeypatch):
    files = {
        "graphic": ("--family", "graphic", "--vertices", 14, "--edges", 28),
        "2-uniform": ("--family", "uniform", "--n", 4, "--k", 2),
        "partition": ("--family", "partition", "--blocks", "2,2"),
    }
    for name, flags in files.items():
        assert run_cli("gen", *flags, "--seed", 1,
                       "--out", tmp_path / f"{name}.json") == 0
    wrong = {
        "samuel-cahn": ("graphic", "2-uniform", "partition"),
        "kuniform-prob": ("graphic", "partition"),
        "kuniform-optfrac": ("graphic", "partition"),
        "partition": ("graphic", "2-uniform"),
        "partition-optfrac": ("graphic", "2-uniform"),
    }
    calls = []

    def never(*args, **kwargs):
        calls.append(1)
        raise AssertionError("the reduction ran before the family check")

    monkeypatch.setattr("matprophet.cli.ex_ante_reduce", never)
    capsys.readouterr()
    for algo, families in wrong.items():
        for family in families:
            for mode in ("exact", "mc"):
                assert run_cli("run", "--instance",
                               tmp_path / f"{family}.json", "--algo", algo,
                               "--mode", mode,
                               "--out", tmp_path / "o") == 1
                assert f"error: {algo} runs on " in capsys.readouterr().err
    assert calls == []


def test_derandomized_cut_is_refused_past_the_cap(tmp_path, capsys,
                                                  monkeypatch):
    # a Monte Carlo reduction enumerates nothing, but the conditional
    # expectations' frontier DP is counted before any state is built
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 30, "--edges", 60,
            "--allow-parallel", "--seed", 1, "--out", inst_path)
    capsys.readouterr()
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-derandomized", "--mode", "mc", "--trials", 1000,
                   "--out", tmp_path / "o") == 2
    assert re.search(r"^error: \d+ cut states exceed the enumeration cap "
                     r"1048576$", capsys.readouterr().err, re.M)
    assert not (tmp_path / "o.summary.json").exists()


def test_derandomized_cut_runs_at_the_bench_size(tmp_path, monkeypatch):
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 14, "--edges", 28,
            "--allow-parallel", "--support-size", 3, "--seed", 1000,
            "--out", inst_path)
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-derandomized", "--mode", "mc", "--trials", 2000,
                   "--out", tmp_path / "o") == 0
    side_a = json.loads((tmp_path / "o.summary.json").read_text())[
        "cut_side_a"]
    inst = load_instance(inst_path).instance
    red, algo = make_algorithm(inst, "graphic-random-cut", mode="mc",
                               trials=2000)
    g, p4, o = inst.matroid, algo.p_scaled, algo.orientation
    in_a = np.isin(np.arange(g.num_vertices), side_a)
    assert cut_objective(g, p4, red.t, o, in_a) >= \
        cut_bound_exact(g, p4, red.t, o)


def test_derandomized_cut_counts_its_runs_together(tmp_path, capsys,
                                                   monkeypatch):
    # a cap that admits one DP run (its vertex order and widths follow the
    # undirected graph) but not the 2V runs refuses before the first
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 6, "--edges", 9,
            "--allow-parallel", "--seed", 3, "--out", inst_path)
    capsys.readouterr()
    g = load_instance(inst_path).instance.matroid
    orientation = Orientation(g.num_vertices, g.eu, g.ev, g.ev)
    one = kernels._cut_steps(g.num_vertices, orientation.tails,
                             orientation.heads, True)[1]
    total = 2 * g.num_vertices * one
    runs = []
    dp = kernels.expected_cut_objective
    monkeypatch.setattr(kernels, "expected_cut_objective",
                        lambda *args: runs.append(1) or dp(*args))
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", str(one))
    with pytest.raises(EnumerationCapError,
                       match=f"^{total} cut states exceed the enumeration "
                             f"cap {one}$"):
        derandomize_cut(g, np.full(g.n, 0.1), np.ones(g.n), orientation)
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-derandomized", "--mode", "mc", "--trials", 1000,
                   "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == \
        f"error: {total} cut states exceed the enumeration cap {one}\n"
    assert runs == []
    assert not (tmp_path / "o.summary.json").exists()


def test_run_rejects_a_level_outside_zero_one(tmp_path, capsys,
                                              monkeypatch):
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 3, "--k", 1, "--seed", 1,
            "--out", inst_path)

    def never(*args, **kwargs):
        raise AssertionError("the algorithm was built before --level "
                             "was checked")

    monkeypatch.setattr("matprophet.cli.make_algorithm", never)
    for mode in ("mc", "exact"):
        for level in ("1.5", "0", "nan"):
            out = tmp_path / f"{mode}{level}"
            # a usage error: the parser exits 1, like an unknown flag
            with pytest.raises(SystemExit) as err:
                run_cli("run", "--instance", inst_path, "--algo",
                        "samuel-cahn", "--mode", mode, "--trials", 100,
                        "--level", level, "--out", out)
            assert err.value.code == 1
            assert "level" in capsys.readouterr().err
            assert not out.with_suffix(".summary.json").exists()


def test_empty_ground_set_writes_strict_json(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for name, family in (("g", ("graphic", "--vertices", 3, "--edges", 0)),
                         ("u", ("uniform", "--n", 0, "--k", 0))):
        inst_path = tmp_path / f"{name}.json"
        run_cli("gen", "--family", *family, "--out", inst_path)
        out = tmp_path / name
        algo = "graphic-random-cut" if name == "g" else "kuniform-prob"
        assert run_cli("run", "--instance", inst_path, "--algo", algo,
                       "--out", out) == 0
        doc = json.loads(out.with_suffix(".summary.json").read_text(),
                         parse_constant=reject)
        assert doc["feasibility_slack"] == "inf"
        capsys.readouterr()
        assert run_cli("reduce", "--instance", inst_path) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["feasibility_slack"] == "inf"


def test_verify_enumerates_a_uniform_instance_once(tmp_path, capsys,
                                                    monkeypatch):
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 5, "--k", 2, "--seed", 4,
            "--out", inst_path)
    capsys.readouterr()
    assert run_cli("verify", "--suite", inst_path) == 0
    before = capsys.readouterr().out
    calls = []
    counting_reduce = kernels.counting_reduce

    def counted(*args):
        calls.append(1)
        return counting_reduce(*args)

    def never(*args):
        raise AssertionError("a uniform instance was enumerated")

    sweeps = []
    subset_rows = kernels.subset_rows

    def swept(k, *args):
        sweeps.append(k)
        return subset_rows(k, *args)

    monkeypatch.setattr(kernels, "counting_reduce", counted)
    monkeypatch.setattr(kernels, "exact_reduce", never)
    monkeypatch.setattr(kernels, "subset_rows", swept)
    assert run_cli("verify", "--suite", inst_path) == 0
    # one count for the instance's reduction, one for kuniform-optfrac's
    # price; no outcome is enumerated, and no subset swept (the baselines
    # flip no coin: each exact value runs over the 2^0 coin rows)
    assert len(calls) == 2
    assert sweeps == [0, 0]
    assert capsys.readouterr().out == before


def test_uniform_exact_mode_passes_the_cap(tmp_path, monkeypatch):
    # 2^40 outcomes, far past the default cap: counted, never enumerated
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 40, "--k", 5,
            "--support-size", 2, "--seed", 6, "--out", inst_path)
    assert load_instance(inst_path).instance.outcome_count() == 2 ** 40
    assert run_cli("run", "--instance", inst_path, "--algo", "kuniform-prob",
                   "--mode", "exact", "--out", tmp_path / "exact") == 0
    summary = json.loads((tmp_path / "exact.summary.json").read_text())
    assert summary["ratio"] >= 0.5 - 1e-9
    # a uniform slack sorts: no size is past the cap
    assert summary["feasibility_slack"] >= -1e-9
    assert run_cli("verify", "--suite", inst_path) == 0


def test_verify_audits_a_declared_vector_past_the_subset_cap(tmp_path,
                                                             capsys):
    # p(S) = 15 on the whole ground set against rank 2: a slack of -13. A
    # 2^30 subset sweep would be refused; sorting finds it
    path = tmp_path / "b.json"
    save_instance(path, bernoulli_to_dict(UniformMatroid(30, 2),
                                          [0.5] * 30, [1.0] * 30))
    assert run_cli("verify", "--suite", path) == 3
    out = capsys.readouterr().out
    assert "polytope-membership          FAIL -1.300e+01" in out


def test_verify_checks_incoming_blocking_at_every_size(tmp_path, capsys,
                                                       monkeypatch):
    # 12 edges: only the enumeration cap limits the blocking row
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 5, "--edges", 12,
            "--allow-parallel", "--seed", 3, "--out", path)
    capsys.readouterr()
    assert run_cli("verify", "--suite", path) == 0
    assert "incoming-blocking            pass +3.617e-01" \
        in capsys.readouterr().out
    # one outcome, so the reduction fits a cap of 100; the blocking row's
    # 353 DP states do not (each edge's run, at most 38, would), and the
    # row is refused, not left out
    inst = load_instance(path).instance
    save_instance(path, ProphetInstance(
        inst.matroid, [DiscreteDistribution.constant(1.0)] * inst.n))
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "100")
    assert run_cli("verify", "--suite", path) == 2
    assert capsys.readouterr().err == (
        "error: 353 incoming-blocking DP states exceed the enumeration cap "
        "100\n")


def test_verify_runs_the_blocking_row_past_its_pattern_count(tmp_path,
                                                            capsys,
                                                            monkeypatch):
    # 9 vertices, 18 edges: the row's pools hold 1,368,064 activation
    # patterns, more than the default cap, but its DP runs count 1,899
    # states, and the row is checked
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 9, "--edges", 18,
            "--allow-parallel", "--support-size", 2, "--seed", 7,
            "--out", path)
    capsys.readouterr()
    assert run_cli("verify", "--suite", path) == 0
    assert "incoming-blocking            pass +2.489e-01" \
        in capsys.readouterr().out


def test_verify_counts_the_blocking_row_once(tmp_path, capsys, monkeypatch):
    # the reduction's 2^5 outcomes fit the cap, and so does each of the 5
    # edges' DP runs (at most 9 states), but the row's 43 together do not:
    # refused before the first
    g = generate.random_graph(np.random.default_rng(0), 5, 5,
                              allow_parallel=True)
    path = tmp_path / "b.json"
    save_instance(path, bernoulli_to_dict(g, [0.2] * g.n, [1.0] * g.n))
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "32")
    assert run_cli("verify", "--suite", path) == 2
    out, err = capsys.readouterr()
    assert "orientation-mass" in out and "incoming-blocking" not in out
    assert err == ("error: 43 incoming-blocking DP states exceed the "
                   "enumeration cap 32\n")


def test_exact_run_counts_every_pass_pattern_up_front(tmp_path, capsys,
                                                      monkeypatch):
    # each of the 58 distinct considered sets passes the cap on its own,
    # but their 1,865 pass patterns together do not: refused before any set
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 8, "--edges", 10,
            "--allow-parallel", "--support-size", 2, "--seed", 1000,
            "--out", inst_path)
    capsys.readouterr()
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "1024")
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-random-cut", "--mode", "exact",
                   "--out", tmp_path / "o") == 2
    _, err = capsys.readouterr()
    assert err == ("error: 1865 pass patterns exceed the enumeration cap "
                   "1024\n")
    assert not (tmp_path / "o.csv").exists()


def test_baseline_reduction_follows_run_settings(tmp_path, monkeypatch):
    # 64 outcomes, past the cap: a uniform instance is counted instead
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "32")
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 6, "--k", 2,
            "--support-size", 2, "--seed", 5, "--out", inst_path)
    assert load_instance(inst_path).instance.outcome_count() == 64
    assert run_cli("run", "--instance", inst_path, "--algo", "kuniform-prob",
                   "--mode", "exact", "--out", tmp_path / "exact") == 0
    summary = json.loads((tmp_path / "exact.summary.json").read_text())
    assert summary["ratio"] >= 0.5 - 1e-9
    for order in ("worst-case", "random"):
        assert run_cli("run", "--instance", inst_path, "--algo",
                       "kuniform-prob", "--mode", "mc", "--trials", 1000,
                       "--order", order, "--out", tmp_path / order) == 0


def test_verify_suite_and_negative_control(tmp_path, capsys):
    good = tmp_path / "good"
    bad = tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    run_cli("gen", "--family", "graphic", "--vertices", 4, "--edges", 4,
            "--seed", 21, "--out", good / "g.json")
    run_cli("gen", "--family", "uniform", "--n", 3, "--k", 2, "--seed", 22,
            "--out", good / "u.json")
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    bern = bernoulli_to_dict(g, [0.5, 0.5, 0.375], [2.0, 1.5, 1.0])
    save_instance(good / "b.json", bern)
    assert run_cli("verify", "--suite", good) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "polytope-membership" in out

    # corrupt the declared vector: it leaves the polytope, nothing else
    # changes, and the verifier must catch it
    doc = dict(bern, bernoulli={"p": [0.9, 0.9, 0.9],
                                "t": bern["bernoulli"]["t"]})
    save_instance(bad / "b.json", doc)
    assert run_cli("verify", "--suite", bad) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
