import json
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import cpmkm
from cpmkm import cli, klr, shiftlab
from cpmkm.adapt import AdaptedModel, predict_target
from cpmkm.cli import main
from cpmkm.shiftlab import gaussian_mixture_pool


@pytest.fixture(scope="module")
def pool_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pool.csv"
    pool = gaussian_mixture_pool(1200, seed=5)
    lines = ["x0,x1,label"]
    for row, lab in zip(pool.features, pool.labels):
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{int(lab)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


FAST = ["--c-grid", "1.0", "--g-grid", "1.0", "--folds", "3"]


def test_adapt_no_shift_toy(pool_csv, tmp_path):
    res = run("simulate", "--pool", pool_csv, "--np", "300", "--nq", "300",
              "--nt", "60", "--alpha", "1000000", "--seed", "1",
              "--out-dir", tmp_path / "scen")
    assert res.exit_code == 0
    out = tmp_path / "adapted.json"
    res = run("adapt", "--source", tmp_path / "scen" / "source.csv",
              "--target", tmp_path / "scen" / "target.csv",
              "--no-standardize", "--out", out, *FAST)
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    w = np.array(doc["w_hat"])
    assert np.abs(w - 1.0).max() <= 0.35  # near-uniform Dirichlet, modest n
    assert len(doc["target_labels"]) == 300


def test_adapt_missing_file(tmp_path):
    res = run("adapt", "--source", tmp_path / "nope.csv",
              "--target", tmp_path / "nope2.csv")
    assert res.exit_code == 1
    assert "nope.csv" in res.output


def test_adapt_wrong_feature_count(pool_csv, tmp_path):
    bad = tmp_path / "bad_target.csv"
    bad.write_text("x0\n0.1\n0.2\n")
    res = run("adapt", "--source", pool_csv, "--target", bad, *FAST)
    assert res.exit_code == 1


def test_adapt_unknown_config_key(pool_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus_key": 1}')
    res = run("adapt", "--source", pool_csv, "--target", pool_csv,
              "--config", cfg)
    assert res.exit_code == 1
    assert "bogus_key" in res.output


@pytest.fixture(scope="module")
def scenario(pool_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    res = run("simulate", "--pool", pool_csv, "--np", "150", "--nq", "100",
              "--nt", "30", "--seed", "2", "--out-dir", out)
    assert res.exit_code == 0, res.output
    return {"source_path": str(out / "source.csv"),
            "target_path": str(out / "target.csv")}


def adapt_with_config(tmp_path, config, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run("adapt", "--config", cfg, *flags)


@pytest.mark.parametrize("config, flags", [
    ({"folds": "3", "seed": "5"}, ["--folds", "3", "--seed", "5"]),
    ({"standardize": "no"}, ["--no-standardize"]),
], ids=["folds-seed", "standardize"])
def test_config_values_typed_like_flags(scenario, tmp_path, config, flags):
    grid = {"c_grid": "1.0", "g_grid": "1.0"}
    res = adapt_with_config(tmp_path, {**scenario, **grid, **config,
                                       "out_path": str(tmp_path / "config.json")})
    assert res.exit_code == 0, res.output
    res = run("adapt", "--source", scenario["source_path"],
              "--target", scenario["target_path"], "--c-grid", "1.0",
              "--g-grid", "1.0", *flags, "--out", tmp_path / "flags.json")
    assert res.exit_code == 0, res.output
    from_config = (tmp_path / "config.json").read_text()
    assert from_config == (tmp_path / "flags.json").read_text()
    res = run("adapt", "--source", scenario["source_path"],
              "--target", scenario["target_path"], "--c-grid", "1.0",
              "--g-grid", "1.0", "--out", tmp_path / "defaults.json")
    assert res.exit_code == 0, res.output
    if "standardize" in config:
        assert from_config != (tmp_path / "defaults.json").read_text()


@pytest.mark.parametrize("c_grid, warning", [
    ("1e-6,1", "warning: CV picked C*=1, g*=1 on the grid edge; "
               "the optimum may lie outside the grid\n"),
    ("1", ""),  # a one-value grid has no edge
], ids=["edge", "one-cell"])
def test_adapt_warns_on_grid_edge_pick(scenario, tmp_path, c_grid, warning):
    res = run("adapt", "--source", scenario["source_path"],
              "--target", scenario["target_path"], "--c-grid", c_grid,
              "--g-grid", "1", "--folds", "3", "--out", tmp_path / "out.json")
    assert res.exit_code == 0, res.output
    assert res.stderr == warning
    doc = json.loads((tmp_path / "out.json").read_text())
    assert len(doc["cv_table"]) == len(c_grid.split(","))


def test_config_value_rejected_like_flag(scenario, tmp_path):
    # a JSON float is no more an integer than `--folds 3.9` is
    for folds in ("three", 3.9):
        res = adapt_with_config(tmp_path, {**scenario, "folds": folds})
        assert res.exit_code == 2
        assert "--folds" in res.output


def test_flag_beats_config(scenario, tmp_path):
    config = {**scenario, "out_path": str(tmp_path / "cfg_out.json")}
    res = adapt_with_config(tmp_path, config, "--out", tmp_path / "flag_out.json", *FAST)
    assert res.exit_code == 0, res.output
    assert (tmp_path / "flag_out.json").exists()
    assert not (tmp_path / "cfg_out.json").exists()


def test_config_does_not_leak_between_calls(scenario, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenario))
    main.main(args=["adapt", "--config", str(cfg), "--out", str(tmp_path / "a.json"),
                    *FAST], prog_name="cpmkm", standalone_mode=False)
    assert (tmp_path / "a.json").exists()
    with pytest.raises(click.MissingParameter, match="source_path"):
        main.main(args=["adapt", "--out", str(tmp_path / "b.json"), *FAST],
                  prog_name="cpmkm", standalone_mode=False)


@pytest.mark.parametrize("text", ["x0,x1\n0.1,0.2\nnan,0.3\n",
                                  "x0,x1\n0.1,0.2\n0.3\n"], ids=["nan", "short-row"])
def test_adapt_bad_target_cell_positioned(pool_csv, tmp_path, text):
    bad = tmp_path / "bad_target.csv"
    bad.write_text(text)
    res = run("adapt", "--source", pool_csv, "--target", bad, *FAST)
    assert res.exit_code == 1
    assert "bad_target.csv: " in res.output and "row 3" in res.output


@pytest.mark.parametrize("command, required", [
    ("adapt", ["--source", "s.csv", "--target", "t.csv"]),
    ("benchmark", ["--pool", "p.csv"]),
])
def test_grid_flag_defaults_are_cv_grid_defaults(command, required):
    # --folds and --trunc-t read CvGrid's own defaults, so the two cannot drift
    params = main.commands[command].make_context(command, required).params
    grid = cli._parse_grid(params["c_grid"], params["g_grid"], params["folds"],
                           params["trunc_t"])
    assert grid == klr.CvGrid()
    shown = {line.split()[0]: line.split("[default: ")[-1]
             for line in run(command, "--help").output.splitlines()
             if line.lstrip().startswith(("--folds", "--trunc-t"))}
    assert shown == {"--folds": "5]", "--trunc-t": "1e-08]"}


def test_methods_flag_default_is_shiftlab_methods():
    # --methods reads shiftlab.METHODS, so the two cannot drift
    params = main.commands["benchmark"].make_context("benchmark", ["--pool", "p.csv"]).params
    assert tuple(params["methods"].split(",")) == shiftlab.METHODS
    assert "[default: cpmkm,bbse,rlls,mlls]" in run("benchmark", "--help").output


def test_usage_error_exits_2(tmp_path):
    res = run("adapt", "--target", tmp_path / "t.csv")
    assert res.exit_code == 2
    assert "--source" in res.output


# simulate has no --config
@pytest.mark.parametrize("command, via", [
    ("adapt", "flag"), ("simulate", "flag"), ("benchmark", "flag"),
    ("adapt", "config"), ("benchmark", "config"),
])
def test_negative_seed_is_usage_error_before_any_read(pool_csv, scenario, tmp_path,
                                                      monkeypatch, command, via):
    def no_read(*args, **kwargs):
        raise AssertionError("read an input file")

    monkeypatch.setattr(cli, "load_csv", no_read)
    monkeypatch.setattr(cli, "load_feature_csv", no_read)
    args = (["--source", scenario["source_path"], "--target", scenario["target_path"]]
            if command == "adapt" else ["--pool", pool_csv])
    if via == "flag":
        args += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args += ["--config", cfg]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # default output paths in work
    res = run(command, *args)
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("c_grid, g_grid", [("nan", "1"), ("1,inf", "1"), ("1", "0.5,-inf")],
                         ids=["c-nan", "c-inf", "g-minus-inf"])
def test_nonfinite_grid_rejected_before_any_fit(scenario, monkeypatch, c_grid, g_grid):
    def no_fit(*args, **kwargs):
        raise AssertionError("klr_fit called")

    monkeypatch.setattr(klr, "klr_fit", no_fit)
    res = run("adapt", "--source", scenario["source_path"],
              "--target", scenario["target_path"], "--c-grid", c_grid,
              "--g-grid", g_grid, "--folds", "3")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == "error: grid values must be positive and finite\n"


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_nonfinite_alpha_rejected_before_any_fit(pool_csv, tmp_path, monkeypatch,
                                                 command, alpha):
    def no_fit(*args, **kwargs):
        raise AssertionError("klr_fit called")

    monkeypatch.setattr(klr, "klr_fit", no_fit)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    res = run(command, "--pool", pool_csv, f"--alpha={alpha}")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: alpha must be positive and finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, fragment", [
    (["--source-reps", "0"], "source_reps and target_reps must be at least 1, got 0 and 10"),
    (["--source-reps", "-1"], "source_reps and target_reps must be at least 1, got -1"),
    (["--target-reps", "0"], "source_reps and target_reps must be at least 1, got 10 and 0"),
    (["--target-reps", "-1"], "source_reps and target_reps must be at least 1, got 10"),
    (["--methods", "cpmkm,cpmkm"], "a repeated method in ['cpmkm', 'cpmkm']"),
], ids=["source-reps-0", "source-reps-neg", "target-reps-0", "target-reps-neg",
        "repeated-method"])
def test_benchmark_options_rejected_before_any_fit(pool_csv, tmp_path, monkeypatch,
                                                   args, fragment):
    def no_fit(*args, **kwargs):
        raise AssertionError("klr_fit called")

    monkeypatch.setattr(klr, "klr_fit", no_fit)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    res = run("benchmark", "--pool", pool_csv, *args)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and fragment in res.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_mq_above_class_count_rejected_before_any_draw(pool_csv, tmp_path, monkeypatch,
                                                       command):
    def fail(*args, **kwargs):
        raise AssertionError("drew a source or fitted")

    monkeypatch.setattr(klr, "klr_fit", fail)
    monkeypatch.setattr(shiftlab, "sample_source", fail)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    res = run(command, "--pool", pool_csv, "--mq", "4")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == "error: m_q=4 exceeds class count 3\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_one_class_scenario_short_of_rows_rejected_before_any_draw(pool_csv, tmp_path,
                                                                   monkeypatch, command):
    # with --mq 1 each cell's 400 target and 100 test rows all come from one
    # class, and no class keeps 400 rows after its 100 of the source draw
    def fail(*args, **kwargs):
        raise AssertionError("drew a source or ran CV")

    monkeypatch.setattr(shiftlab, "sample_source", fail)
    monkeypatch.setattr(shiftlab, "cv_select", fail)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    res = run(command, "--pool", pool_csv, "--mq", "1", "--np", "300", "--nq", "400",
              "--nt", "100")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == "error: pool exhausted for class 1: need 400, have 312\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_sample_sizes_above_pool_rows_rejected_before_any_draw(pool_csv, tmp_path,
                                                               monkeypatch, command):
    # no draw fits 600 + 600 + 100 disjoint rows into the 1200-row pool
    def fail(*args, **kwargs):
        raise AssertionError("drew a source or ran CV")

    monkeypatch.setattr(shiftlab, "sample_source", fail)
    monkeypatch.setattr(shiftlab, "cv_select", fail)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    res = run(command, "--pool", pool_csv, "--np", "600", "--nq", "600", "--nt", "100")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == "error: n_p + n_q + n_t = 600 + 600 + 100 exceeds the pool's 1200 rows\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["adapt", "benchmark"])
@pytest.mark.parametrize("trunc_t", ["0.3", "0", "-1", "nan"])
def test_trunc_t_outside_range_rejected_before_any_fit(pool_csv, scenario, tmp_path,
                                                       monkeypatch, command, trunc_t):
    def fail(*args, **kwargs):
        raise AssertionError("factored a Gram")

    monkeypatch.setattr(klr, "pivoted_factor", fail)
    monkeypatch.chdir(tmp_path)  # default output paths in tmp_path
    inputs = (["--source", scenario["source_path"], "--target", scenario["target_path"]]
              if command == "adapt" else ["--pool", pool_csv])
    res = run(command, *inputs, f"--trunc-t={trunc_t}")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: trunc_t must lie in (0, 1/(2M)), got {float(trunc_t)}\n"
    assert list(tmp_path.iterdir()) == []


def test_outputs_into_missing_directories(pool_csv, tmp_path):
    # every writer creates the parent directories of its output path
    scen = tmp_path / "missing" / "scen"
    res = run("simulate", "--pool", pool_csv, "--np", "150", "--nq", "100",
              "--nt", "30", "--seed", "2", "--out-dir", scen)
    assert res.exit_code == 0, res.output
    adapted = tmp_path / "missing" / "nested" / "adapted.json"
    res = run("adapt", "--source", scen / "source.csv", "--target", scen / "target.csv",
              "--out", adapted, *FAST)
    assert res.exit_code == 0, res.output
    assert "w_hat" in json.loads(adapted.read_text())
    bench = tmp_path / "missing" / "nested" / "bench" / "benchmark.json"
    res = run("benchmark", "--pool", pool_csv, "--np", "120", "--nq", "80", "--nt", "80",
              "--methods", "cpmkm", "--source-reps", "1", "--target-reps", "1",
              "--out", bench, *FAST)
    assert res.exit_code == 0, res.output
    assert len(json.loads(bench.read_text())["reports"]) == 1
    plot = tmp_path / "missing" / "nested" / "plot" / "plot.csv"
    res = run("plot-data", "--reports", bench, "--out", plot)
    assert res.exit_code == 0, res.output
    assert plot.read_text().startswith("method,n_q,mean,std\ncpmkm,80,")


TINY_ALPHA_RUNS = {
    "simulate": ["--out-dir", "out"],
    "benchmark": ["--methods", "cpmkm,bbse", "--source-reps", "1", "--target-reps", "3",
                  "--out", "benchmark.json", *FAST],
}


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
@pytest.mark.parametrize("alpha", ["1e-300", "1e-12"])
def test_tiny_alpha_exits_with_one_hot_q_true(pool_csv, tmp_path, command, alpha):
    # every Gamma(alpha) variate of the draw underflows to zero; a sampler
    # that redraws until one is positive never returns, and times out here
    src = str(Path(cpmkm.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         "from cpmkm.cli import main; main()", command, "--pool", str(pool_csv),
         "--np", "150", "--nq", "100", "--nt", "30", "--alpha", alpha, "--seed", "2",
         *TINY_ALPHA_RUNS[command]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    if command == "simulate":
        q_true = json.loads((tmp_path / "out" / "q_true.json").read_text())["q_true"]
        labels = np.loadtxt(tmp_path / "out" / "test.csv", delimiter=",", skiprows=1)[:, -1]
        assert set(labels) == {np.argmax(q_true) + 1}
        draws = [q_true]
    else:
        reports = json.loads((tmp_path / "benchmark.json").read_text())["reports"]
        draws = [r["q_true"] for r in reports]
        assert len(draws) == 6
    for q_true in draws:
        assert sorted(q_true) == [0.0, 0.0, 1.0]


def test_numerical_failure_exits_2(scenario, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "adapt_pipeline", singular)
    res = run("adapt", "--source", scenario["source_path"],
              "--target", scenario["target_path"], *FAST)
    assert res.exit_code == 2
    assert "numerical failure: singular matrix" in res.output


def test_benchmark_single_report(pool_csv, tmp_path):
    out = tmp_path / "bench.json"
    res = run("benchmark", "--pool", pool_csv, "--np", "150", "--nq", "100",
              "--nt", "100", "--methods", "cpmkm", "--source-reps", "1",
              "--target-reps", "1", "--out", out, *FAST)
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["method"] == "cpmkm"
    assert list(doc["reports"][0]) == ["method", "acc", "mse", "w_hat", "q_hat",
                                       "q_true", "seed_pair", "model_fingerprint"]


def test_every_document_starts_with_schema_version(pool_csv, tmp_path):
    # one writer stamps the key; no command spells it out
    res = run("simulate", "--pool", pool_csv, "--np", "150", "--nq", "100",
              "--nt", "30", "--seed", "2", "--out-dir", tmp_path / "scen")
    assert res.exit_code == 0, res.output
    res = run("adapt", "--source", tmp_path / "scen" / "source.csv",
              "--target", tmp_path / "scen" / "target.csv",
              "--out", tmp_path / "adapted.json", *FAST)
    assert res.exit_code == 0, res.output
    res = run("benchmark", "--pool", pool_csv, "--np", "150", "--nq", "100",
              "--nt", "100", "--methods", "cpmkm", "--source-reps", "1",
              "--target-reps", "1", "--out", tmp_path / "bench.json", *FAST)
    assert res.exit_code == 0, res.output
    for path in ("scen/q_true.json", "adapted.json", "bench.json"):
        doc = json.loads((tmp_path / path).read_text())
        assert list(doc.items())[0] == ("schema_version", 1)


def test_benchmark_deterministic(pool_csv, tmp_path):
    args = ["benchmark", "--pool", pool_csv, "--np", "150", "--nq", "100",
            "--nt", "100", "--methods", "cpmkm,bbse", "--source-reps", "1",
            "--target-reps", "2", "--seed", "9", *FAST]
    docs = []
    for name in ("b1.json", "b2.json"):
        res = run(*args, "--out", tmp_path / name)
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / name).read_text())
        doc.pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_benchmark_unknown_method(pool_csv, tmp_path):
    res = run("benchmark", "--pool", pool_csv, "--methods", "kmm",
              "--out", tmp_path / "x.json")
    assert res.exit_code == 1
    assert "kmm" in res.output


def test_evaluate_metrics(tmp_path):
    (tmp_path / "pred.csv").write_text("label\n1\n2\n2\n")
    (tmp_path / "true.csv").write_text("label\n1\n2\n1\n")
    (tmp_path / "qh.json").write_text('{"q_hat": [0.6, 0.4]}')
    (tmp_path / "qt.json").write_text('{"q_true": [0.5, 0.5]}')
    res = run("evaluate", "--predictions", tmp_path / "pred.csv",
              "--truth", tmp_path / "true.csv",
              "--q-hat", tmp_path / "qh.json", "--q-true", tmp_path / "qt.json")
    assert res.exit_code == 0, res.output
    assert "ACC: 0.666667" in res.output
    assert "MSE: 0.01000000" in res.output


def test_labels_written_back_in_file_values(pool_csv, tmp_path):
    rows = pool_csv.read_text().splitlines()
    # classes 1 and 2 of the pool, relabelled 5 and 9
    lines = [rows[0]] + [r[:-1] + {"1": "5", "2": "9"}[r[-1]]
                         for r in rows[1:] if r[-1] in "12"]
    pool = tmp_path / "pool59.csv"
    pool.write_text("\n".join(lines) + "\n")
    scen = tmp_path / "scen"
    res = run("simulate", "--pool", pool, "--np", "80", "--nq", "60", "--nt", "40",
              "--alpha", "1000000", "--seed", "3", "--out-dir", scen)
    assert res.exit_code == 0, res.output
    for name in ("source.csv", "test.csv"):
        labels = {r.rsplit(",", 1)[1] for r in (scen / name).read_text().splitlines()[1:]}
        assert labels == {"5", "9"}
    out = tmp_path / "adapted.json"
    res = run("adapt", "--source", scen / "source.csv", "--target", scen / "target.csv",
              "--out", out, *FAST)
    assert res.exit_code == 0, res.output
    assert set(json.loads(out.read_text())["target_labels"]) == {5, 9}


def test_adapt_two_classes_one_target_row_document(tmp_path):
    # M = 2 with file labels 3 and 7, and n_q = 1
    rng = np.random.default_rng(21)
    labels = np.repeat([3, 7], 20)
    x = np.where(labels == 3, -1.5, 1.5)[:, None] + 0.5 * rng.standard_normal((40, 2))
    (tmp_path / "source.csv").write_text("x0,x1,label\n" + "".join(
        f"{a!r},{b!r},{lab}\n" for (a, b), lab in zip(x.tolist(), labels)))
    target = np.array([[1.4, 1.6]])
    (tmp_path / "target.csv").write_text("x0,x1\n1.4,1.6\n")
    out = tmp_path / "adapted.json"
    res = run("adapt", "--source", tmp_path / "source.csv",
              "--target", tmp_path / "target.csv", "--no-standardize",
              "--out", out, *FAST)
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    w = np.array(doc["w_hat"])
    assert w.shape == (2,) and np.all(np.isfinite(w)) and np.all(w >= 0)
    q = np.array(doc["q_hat"])
    assert np.all(q >= 0) and q.sum() == pytest.approx(1.0, abs=1e-12)
    [label] = doc["target_labels"]
    assert label in (3, 7)
    model = AdaptedModel.from_dict(doc["adapted_model"])
    _, predicted = predict_target(model, target)
    assert [3, 7][predicted[0] - 1] == label


def modules_loaded_by_import(prefix, then="", imports="cpmkm.cli"):
    """Names starting with `prefix` in sys.modules after a fresh interpreter
    runs `import <imports>` and then the statements `then`."""
    src = str(Path(cpmkm.__file__).resolve().parents[1])
    code = "\n".join([f"import sys; sys.path.insert(0, {src!r})", f"import {imports}", then,
                      f"print([m for m in sys.modules if m.startswith({prefix!r})])"])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return res.stdout.splitlines()[-1]


def test_import_cli_skips_selftest():
    assert modules_loaded_by_import("cpmkm.selftest") == "[]"


def test_import_cli_skips_scipy_optimize():
    # the KLR and CPM solvers are numpy loops: starting the CLI loads no optimizer
    assert modules_loaded_by_import("scipy.optimize") == "[]"


def test_import_data_and_kernel_skips_scipy():
    # the package __init__ imports no submodule, so reading CSVs and building
    # Grams does not load the fit path's scipy
    assert modules_loaded_by_import("scipy", imports="cpmkm.data, cpmkm.kernel") == "[]"


def test_import_cli_skips_scipy_linalg_init():
    # klr.py loads the LAPACK extension by itself, not through scipy.linalg
    assert modules_loaded_by_import("scipy.linalg") == "['scipy.linalg._flapack']"


def test_adapt_run_skips_scipy_linalg_init(pool_csv, tmp_path):
    # the import cost is removed, not deferred to the first fit
    lines = pool_csv.read_text().splitlines()
    (tmp_path / "source.csv").write_text("\n".join(lines[:61]) + "\n")
    (tmp_path / "target.csv").write_text(
        "\n".join(line.rpartition(",")[0] for line in [lines[0], *lines[61:101]]) + "\n")
    out = tmp_path / "adapted.json"
    args = ["adapt", "--source", str(tmp_path / "source.csv"),
            "--target", str(tmp_path / "target.csv"), "--out", str(out),
            "--c-grid", "1", "--g-grid", "1", "--folds", "2"]
    then = f"cpmkm.cli.main.main({args!r}, standalone_mode=False)"
    assert modules_loaded_by_import("scipy.linalg", then) == "['scipy.linalg._flapack']"
    assert len(json.loads(out.read_text())["target_labels"]) == 40


BAD_INPUTS = {
    "bad.csv": "x0,label\n0.1,1\n0.2,1.7\n0.3,2\n",
    "pred.csv": "label\n1\n2\n",
    "two_columns.csv": "a,b\n1,1\n2,2\n",
    "qh.json": '{"q_hat": [0.6, 0.4]}',
    "no_key.json": '{"q_hat": [0.6, 0.4]}',
    "list.json": "[0.5, 0.5]",
    "report.json": '{"spec": {"n_q": 80}, "aggregate": [1]}',
    "pool34.csv": "x0,label\n0.1,3\n0.2,3\n0.3,4\n0.4,4\n",
    "target2.csv": "x0,x1\n0.1,0.2\n0.3,0.4\n",
    "empty.csv": "",
}


@pytest.mark.parametrize("args, fragment", [
    (["adapt", "--source", "bad.csv", "--target", "pred.csv"], "non-integer label"),
    (["benchmark", "--pool", "bad.csv"], "non-integer label"),
    (["benchmark", "--pool", "POOL", "--methods", ","], "no method"),
    (["benchmark", "--pool", "POOL", "--mq", "0"], "m_q must be at least 1"),
    (["simulate", "--pool", "POOL", "--mq", "0"], "m_q must be at least 1"),
    (["simulate", "--pool", "missing.csv"], "missing.csv"),
    (["evaluate", "--predictions", "bad.csv", "--truth", "pred.csv"], "bad.csv"),
    (["evaluate", "--predictions", "two_columns.csv", "--truth", "pred.csv"],
     "two_columns.csv"),
    (["evaluate", "--predictions", "pred.csv", "--truth", "pred.csv",
      "--q-hat", "qh.json", "--q-true", "no_key.json"], "no_key.json: not a q_true"),
    (["evaluate", "--predictions", "pred.csv", "--truth", "pred.csv",
      "--q-hat", "list.json", "--q-true", "qh.json"], "list.json: not a q_hat"),
    (["evaluate", "--predictions", "pred.csv", "--truth", "pred.csv",
      "--q-hat", "qh.json"], "--q-hat requires --q-true"),
    (["evaluate", "--predictions", "pred.csv", "--truth", "pred.csv",
      "--q-true", "missing.json"], "--q-true requires --q-hat"),
    (["adapt", "--source", "POOL", "--target", "target2.csv", "--folds", "1"],
     "folds must be >= 2"),
    (["adapt", "--source", "empty.csv", "--target", "target2.csv"],
     "empty.csv: empty file"),
    (["benchmark", "--pool", "POOL", "--config", "missing.json"],
     "cannot read config missing.json"),
    (["benchmark", "--pool", "POOL", "--config", "list.json"],
     "config list.json must be a JSON object"),
    (["plot-data", "--reports", "report.json"], "report.json: not a benchmark"),
    # the pool's classes are labelled 3 and 4: errors name them so
    (["simulate", "--pool", "pool34.csv", "--np", "2", "--nq", "1", "--nt", "1"],
     "pool exhausted for class 4:"),
], ids=["adapt-label", "benchmark-label", "benchmark-no-method", "benchmark-mq-0",
        "simulate-mq-0", "simulate-missing", "evaluate-label", "evaluate-two-columns",
        "evaluate-no-key", "evaluate-list", "evaluate-q-hat-only",
        "evaluate-q-true-only", "adapt-folds-1", "adapt-empty-file",
        "config-missing", "config-list", "plot-data-aggregate-list",
        "simulate-class-value"])
def test_malformed_input_exits_1(pool_csv, tmp_path, monkeypatch, args, fragment):
    monkeypatch.chdir(tmp_path)  # inputs, and default output paths, in tmp_path
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    res = run(*(pool_csv if a == "POOL" else a for a in args))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ") and fragment in res.stderr


def test_plot_data(pool_csv, tmp_path):
    out = tmp_path / "b.json"
    res = run("benchmark", "--pool", pool_csv, "--np", "120", "--nq", "80",
              "--nt", "80", "--methods", "cpmkm", "--source-reps", "1",
              "--target-reps", "1", "--out", out, *FAST)
    assert res.exit_code == 0, res.output
    csv_out = tmp_path / "plot.csv"
    res = run("plot-data", "--reports", out, "--out", csv_out)
    assert res.exit_code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "method,n_q,mean,std"
    assert lines[1].startswith("cpmkm,80,")


@pytest.mark.parametrize("text", ["not json\n", '{"spec": {"n_q": 80}}\n'],
                         ids=["not-json", "no-aggregate"])
def test_plot_data_bad_report(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = run("plot-data", "--reports", bad, "--out", tmp_path / "plot.csv")
    assert res.exit_code == 1
    assert "error: " in res.output and "bad.json" in res.output
    assert not (tmp_path / "plot.csv").exists()


def test_selftest_passes():
    from cpmkm.selftest import CHECKS

    r1 = run("selftest")
    r2 = run("selftest")
    assert r1.exit_code == 0
    assert r1.output.splitlines() == [f"{name}: PASS" for name, _ in CHECKS]
    assert r1.output == r2.output


def test_selftest_injected_fault(monkeypatch):
    # floored without renormalizing: off the simplex
    monkeypatch.setattr(klr, "truncate_simplex", lambda p, t: np.maximum(p, t))
    res = run("selftest")
    assert res.exit_code == 3
    assert "truncation: FAIL" in res.output.splitlines()
