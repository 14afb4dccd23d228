"""Instance files and the command line front end."""

import csv
import json

import numpy as np
import pytest

from matprophet import (BernoulliInstance, GraphicMatroid, PartitionMatroid,
                        ProphetInstance, UniformMatroid, bernoulli_to_dict,
                        load_instance, parse_instance, save_instance)
from matprophet import generate, kernels
from matprophet.cli import CSV_HEADER, _fmt, main, make_algorithm
from matprophet.distributions import DiscreteDistribution
from matprophet.engine import monte_carlo_ratio, safe_ratio
from matprophet.generate import random_distribution, random_graphic_instance


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
        assert got.matroid.rank(range(3)) == m.rank(range(3))


def test_round_trip_bernoulli(tmp_path):
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    bern = BernoulliInstance(g, [0.5, 0.5, 0.375], [2.0, 1.5, 1.0])
    path = tmp_path / "b.json"
    save_instance(path, bernoulli_to_dict(bern))
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
    cases = [(ProphetInstance(g, [sparse() for _ in range(g.n)]),
              "graphic-random-cut"), (uniform, "kuniform-prob")]
    trials, seed = 300, 7
    degenerate = empty = 0
    for case, (inst, name) in enumerate(cases):
        inst_path = tmp_path / f"i{case}.json"
        save_instance(inst_path, inst)
        for order in ("worst-case", "random"):
            out = tmp_path / f"{case}-{order}"
            with pytest.warns(UserWarning):
                assert run_cli("run", "--instance", inst_path, "--algo", name,
                               "--mode", "mc", "--trials", trials, "--seed",
                               seed, "--order", order, "--out", out) == 0
                algo = make_algorithm(inst, name, mode="mc", trials=trials,
                                      seed=seed)
                _, alg, pro, acc = monte_carlo_ratio(
                    inst, algo, trials, seed=seed,
                    order=order.replace("-", "_"), return_trials=True)
            want = oracle_csv(seed, order, alg, pro, acc)
            assert out.with_suffix(".csv").read_bytes() == want
            degenerate += int((pro == 0).sum())
            empty += int((~acc.any(axis=1)).sum())
    assert degenerate > 0 and empty > degenerate


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


def test_exit_codes(tmp_path):
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 3, "--k", 1, "--seed", 1,
            "--out", inst_path)
    # wrong matroid family for the cut construction
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-random-cut", "--mode", "exact",
                   "--out", tmp_path / "o") == 1
    # missing file
    assert run_cli("run", "--instance", tmp_path / "nope.json", "--algo",
                   "samuel-cahn", "--out", tmp_path / "o") == 1
    # enumeration cap
    assert run_cli("reduce", "--instance", inst_path, "--cap", 2) == 2
    # random order cannot be computed exactly
    assert run_cli("run", "--instance", inst_path, "--algo", "samuel-cahn",
                   "--mode", "exact", "--order", "random",
                   "--out", tmp_path / "o") == 1
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--no-such-flag")
    assert err.value.code == 1


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


def test_derandomized_cut_is_refused_past_the_cap(tmp_path, capsys,
                                                  monkeypatch):
    # a Monte Carlo reduction enumerates nothing, but the conditional
    # expectations still need every one of the 2^21 cuts
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    inst_path = tmp_path / "g.json"
    run_cli("gen", "--family", "graphic", "--vertices", 21, "--edges", 21,
            "--seed", 3, "--out", inst_path)
    capsys.readouterr()
    assert run_cli("run", "--instance", inst_path, "--algo",
                   "graphic-derandomized", "--mode", "mc", "--trials", 1000,
                   "--out", tmp_path / "o") == 2
    assert "2^21 cuts exceed the enumeration cap" in capsys.readouterr().err


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
    exact_reduce = kernels.exact_reduce

    def counted(*args):
        calls.append(1)
        return exact_reduce(*args)

    monkeypatch.setattr(kernels, "exact_reduce", counted)
    assert run_cli("verify", "--suite", inst_path) == 0
    # the reduction's enumeration also prices kuniform-optfrac
    assert len(calls) == 1
    assert capsys.readouterr().out == before


def test_baseline_reduction_follows_run_settings(tmp_path, monkeypatch):
    # 64 outcomes: past the environment's cap, within the run's --cap
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "32")
    inst_path = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform", "--n", 6, "--k", 2,
            "--support-size", 2, "--seed", 5, "--out", inst_path)
    assert load_instance(inst_path).instance.outcome_count() == 64
    assert run_cli("run", "--instance", inst_path, "--algo", "kuniform-prob",
                   "--mode", "exact", "--cap", 100,
                   "--out", tmp_path / "exact") == 0
    summary = json.loads((tmp_path / "exact.summary.json").read_text())
    assert summary["ratio"] >= 0.5 - 1e-9
    for order in ("worst-case", "random"):
        assert run_cli("run", "--instance", inst_path, "--algo",
                       "kuniform-prob", "--mode", "mc", "--trials", 1000,
                       "--order", order, "--cap", 100,
                       "--out", tmp_path / order) == 0


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
    bern = BernoulliInstance(g, [0.5, 0.5, 0.375], [2.0, 1.5, 1.0])
    save_instance(good / "b.json", bernoulli_to_dict(bern))
    assert run_cli("verify", "--suite", good) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "polytope-membership" in out

    # corrupt the declared vector: it leaves the polytope, nothing else
    # changes, and the verifier must catch it
    doc = bernoulli_to_dict(bern)
    doc["bernoulli"]["p"] = [0.9, 0.9, 0.9]
    save_instance(bad / "b.json", doc)
    assert run_cli("verify", "--suite", bad) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
