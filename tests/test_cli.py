import numpy as np
import pytest

from wkb_lab.cli import _parse_h_values, load_config, main
from wkb_lab.data import load_cloud
from wkb_lab.errors import ConfigError

MINI_CONFIG = """
[dataset]
name = swiss-roll
n = 600
seed = 3

[schedule]
kind = const-beta
beta = 4.0
t_min = 0.01
t_max = 1.0

[train]
epochs = 2
batch = 64
lr = 1e-3
seed = 5

[nll]
dx = 0.05
tol_outer = 1e-3
tol_inner = 1e-4
n_points = 2

[sweep]
h_values = 0,1
trials = 2
n_samples = 64
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINI_CONFIG)
    return str(path)


def test_defaults_without_config_file():
    cfg = load_config(None)
    assert cfg.schedule["t_min"] == 0.01
    assert cfg.schedule["t_max"] == 1.0
    assert cfg.nll["dx"] == 0.01
    assert cfg.train["batch"] == 512


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[dataset]\nname = swiss-roll\nshape = oval\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nname = x\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_out_of_range_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[schedule]\nt_min = 0.0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_env_seed_overrides_all(mini_config, monkeypatch):
    monkeypatch.setenv("WKB_LAB_SEED", "99")
    cfg = load_config(mini_config)
    assert cfg.dataset["seed"] == 99
    assert cfg.train["seed"] == 99


def test_h_values_parsing():
    assert _parse_h_values("0, 0.2,1") == [0.0, 0.2, 1.0]
    with pytest.raises(ConfigError):
        _parse_h_values("0;1")


def test_gen_data_command(mini_config, tmp_path):
    out = tmp_path / "out"
    assert main(["gen-data", "--config", mini_config, "--out", str(out)]) == 0
    cloud = load_cloud(out / "swiss-roll.tsv")
    assert len(cloud) == 600


def test_unknown_dataset_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "moons.ini"
    path.write_text(MINI_CONFIG.replace("name = swiss-roll", "name = moons"))
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown dataset 'moons'") and "Traceback" not in err
    assert not out.exists()


def test_gaussian_command_exact_score_has_zero_w2(tmp_path):
    out = tmp_path / "out"
    assert main(["gaussian", "--eps", "0", "--out", str(out)]) == 0
    rows = [l.split("\t") for l in (out / "gaussian_curves.tsv").read_text()
            .splitlines() if not l.startswith("#") and not l.startswith("h")]
    w2 = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(w2, 0.0, atol=1e-12)
    assert (out / "flow_identity_residuals.tsv").exists()


def test_verify_command_passes():
    assert main(["verify"]) == 0


def test_full_pipeline_smoke(mini_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", mini_config, "--out", str(out)]) == 0
    ckpt = out / "swiss-roll_const-beta.ckpt"
    assert ckpt.exists()
    assert main(["sample", "--config", mini_config, "--out", str(out),
                 "--checkpoint", str(ckpt), "--h", "0.5", "--n", "32",
                 "--n-steps", "25", "--record", "2"]) == 0
    assert (out / "samples_h0.5.tsv").exists()
    assert (out / "trajectories_h0.5.tsv").exists()
    assert main(["nll", "--config", mini_config, "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0
    table = (out / "nll_table.tsv").read_text()
    assert "# 1st-corr = " in table
    assert main(["w2-sweep", "--config", mini_config, "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0
    sweep = (out / "w2_sweep.tsv").read_text()
    assert sweep.count("\n") >= 3


def test_nll_single_point_zero_stderr(mini_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", mini_config, "--out", str(out),
                 "--epochs", "1"]) == 0
    ckpt = out / "swiss-roll_const-beta.ckpt"
    cfg_one = (tmp_path / "one.ini")
    cfg_one.write_text(MINI_CONFIG.replace("n_points = 2", "n_points = 1"))
    assert main(["nll", "--config", str(cfg_one), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0
    footer = [l for l in (out / "nll_table.tsv").read_text().splitlines()
              if l.startswith("# NLL")]
    assert footer[0].split("+-")[1].strip() == "0"


def test_missing_checkpoint_is_an_error(mini_config, capsys):
    assert main(["nll", "--config", mini_config, "--out", "/tmp/x"]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_rerun_reproduces_outputs(mini_config, tmp_path):
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        ckpt = str(out / "swiss-roll_const-beta.ckpt")
        for argv in (["gen-data", "--config", mini_config],
                     ["train", "--config", mini_config],
                     ["sample", "--config", mini_config, "--checkpoint", ckpt, "--h", "0.5",
                      "--n", "32", "--n-steps", "25", "--record", "2"],
                     ["nll", "--config", mini_config, "--checkpoint", ckpt],
                     ["w2-sweep", "--config", mini_config, "--checkpoint", ckpt],
                     ["gaussian"]):
            assert main(argv + ["--out", str(out)]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted([
        "swiss-roll.tsv", "swiss-roll_const-beta.ckpt", "swiss-roll_const-beta_loss.tsv",
        "samples_h0.5.tsv", "trajectories_h0.5.tsv", "nll_table.tsv", "w2_sweep.tsv",
        "gaussian_curves.tsv", "flow_identity_residuals.tsv"])
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def mini_checkpoint(tmp_path_factory):
    """(config path, checkpoint path) of a 1-epoch run of the mini config."""
    tmp = tmp_path_factory.mktemp("mini")
    config = tmp / "run.ini"
    config.write_text(MINI_CONFIG)
    assert main(["train", "--config", str(config), "--out", str(tmp), "--epochs", "1"]) == 0
    return str(config), str(tmp / "swiss-roll_const-beta.ckpt")


def test_nll_echo_records_flags_and_the_checkpoint_schedule(mini_checkpoint, tmp_path):
    config, ckpt = mini_checkpoint
    # the config's schedule differs from the checkpoint's, and flags override [nll]
    other = tmp_path / "other.ini"
    other.write_text(MINI_CONFIG.replace("kind = const-beta\nbeta = 4.0",
                                         "kind = cosine\nbeta = 9.0")
                     .replace("t_max = 1.0", "t_max = 0.99"))
    assert main(["nll", "--config", str(other), "--checkpoint", ckpt, "--out",
                 str(tmp_path / "flags"), "--dx", "0.02", "--tol-outer", "1e-2",
                 "--tol-inner", "1e-3"]) == 0
    table = (tmp_path / "flags" / "nll_table.tsv").read_text()
    for line in ("# schedule.kind = const-beta", "# schedule.beta = 4.0",
                 "# schedule.t_max = 1.0", "# nll.dx = 0.02", "# nll.tol_outer = 0.01",
                 "# nll.tol_inner = 0.001"):
        assert line + "\n" in table
    assert "# nll.scheme" not in table  # one error bar, so nothing to echo
    # the echo is the run: the same settings from a file give the same bytes
    same = tmp_path / "same.ini"
    same.write_text(MINI_CONFIG.replace("dx = 0.05", "dx = 0.02")
                    .replace("tol_outer = 1e-3", "tol_outer = 1e-2")
                    .replace("tol_inner = 1e-4", "tol_inner = 1e-3"))
    assert main(["nll", "--config", str(same), "--checkpoint", ckpt, "--out",
                 str(tmp_path / "file")]) == 0
    assert (tmp_path / "file" / "nll_table.tsv").read_text() == table


def test_w2_sweep_is_independent_of_the_worker_count(mini_checkpoint, tmp_path):
    config, ckpt = mini_checkpoint
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["w2-sweep", "--config", config, "--checkpoint", ckpt,
                     "--threads", threads, "--out", str(out)]) == 0
        tables.append((out / "w2_sweep.tsv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "-1"],
    ["nll", "--dx", "-1"],
    ["nll", "--dx", "nan"],
    ["nll", "--tol-outer", "-1"],
    ["sample", "--n", "0"],
    ["sample", "--n", "-3"],
    ["sample", "--n-steps", "0"],
    ["sample", "--h", "-1"],
    ["gaussian", "--beta", "-1"],
    ["gaussian", "--beta", "nan"],
    ["gaussian", "--n-h", "-1"],
    ["sample", "--h", "nan"],
    ["sample", "--h", "inf"],
    ["gaussian", "--eps", "nan"],
    ["gaussian", "--eps", "inf"],
    ["sample", "--record", "-3"],
    ["gaussian", "--n-h", "0"],
    ["sample", "--n", "10", "--record", "100"],
    ["gaussian", "--beta", "inf"],
    ["gaussian", "--v0", "inf"],
    ["gaussian", "--T", "inf"],
    ["gaussian", "--eps=1e3"],
    ["gaussian", "--eps=-1e3"],
    ["gaussian", "--eps=310"],
])
def test_bad_flag_value_is_a_config_error(mini_checkpoint, tmp_path, capsys, argv):
    config, ckpt = mini_checkpoint
    run = {"train": ["--config", config],
           "nll": ["--config", config, "--checkpoint", ckpt],
           "sample": ["--config", config, "--checkpoint", ckpt]}.get(argv[0], [])
    out = tmp_path / "out"
    assert main(argv + run + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "Traceback" not in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("flag", ["--tol-inner", "--tol-outer", "--dx"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_nll_setting_is_rejected_before_any_point(mini_checkpoint, tmp_path,
                                                            capsys, monkeypatch, flag, value):
    config, ckpt = mini_checkpoint
    points = []
    monkeypatch.setattr("wkb_lab.likelihood.nll_first_order",
                        lambda *args, **kwargs: points.append(args))
    out = tmp_path / "out"
    assert main(["nll", flag, value, "--config", config, "--checkpoint", ckpt,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad nll: ") and "Traceback" not in err
    assert points == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "2"],
    ["verify", "--config", "x.ini"],
    ["verify", "--out", "out"],
    ["gaussian", "--config", "x.ini"],
    ["gaussian", "--threads", "2"],
    ["gen-data", "--threads", "2"],
    ["train", "--threads", "2"],
    ["sample", "--threads", "2"],
    ["nll", "--scheme", "model"],
])
def test_command_rejects_a_flag_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("schedule", [
    "kind = cosine\nt_max = 1.0",  # the tangent pole
    "kind = simple\nt_max = nan",
    "kind = simple\nbeta = nan",
    "kind = simple\nbeta = inf",
    "kind = simple\nt_max = inf",
    "kind = quadratic",
])
def test_bad_schedule_is_a_config_error(tmp_path, capsys, schedule):
    path = tmp_path / "bad.ini"
    path.write_text(f"[schedule]\n{schedule}\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: bad schedule: ")


def test_train_batch_above_dataset_size_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "small.ini"
    path.write_text(MINI_CONFIG.replace("n = 600", "n = 40"))  # batch = 64
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad train: ") and "Traceback" not in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("lr", ["inf", "nan", "0"])
def test_bad_train_lr_is_rejected_before_any_work(tmp_path, capsys, lr):
    path = tmp_path / "lr.ini"
    path.write_text(MINI_CONFIG.replace("lr = 1e-3", f"lr = {lr}"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad train: lr must be positive and finite")
    assert "Traceback" not in err and not out.exists()


def test_negative_env_seed_is_a_config_error(mini_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WKB_LAB_SEED", "-1")
    with pytest.raises(ConfigError, match="bad seed"):
        load_config(mini_config)
    assert main(["gen-data", "--config", mini_config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: bad seed: ")


@pytest.mark.parametrize("section", ["dataset", "train"])
def test_negative_config_seed_is_a_config_error(tmp_path, section):
    path = tmp_path / "seed.ini"
    path.write_text(f"[{section}]\nseed = -1\n")
    with pytest.raises(ConfigError, match="bad seed"):
        load_config(str(path))


@pytest.mark.parametrize("h_values", ["0,nan", "inf", "0,-1", ","])
def test_bad_sweep_h_is_a_config_error(tmp_path, h_values):
    path = tmp_path / "sweep.ini"
    path.write_text(f"[sweep]\nh_values = {h_values}\n")
    with pytest.raises(ConfigError, match="bad sweep: "):
        load_config(str(path))


@pytest.mark.parametrize("command", ["nll", "w2-sweep"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_config_error(mini_checkpoint, tmp_path, capsys, command,
                                              threads):
    config, ckpt = mini_checkpoint
    out = tmp_path / "out"
    assert main([command, "--config", config, "--checkpoint", ckpt, "--threads", threads,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad threads: ") and "Traceback" not in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("dataset_n, n_samples", [
    (100, 200),    # more samples than validation points
    (7000, 6000),  # more than an exact W2 takes
])
def test_sweep_sample_count_is_checked_before_sampling(mini_checkpoint, tmp_path, capsys,
                                                       dataset_n, n_samples):
    config, ckpt = mini_checkpoint
    path = tmp_path / "sweep.ini"
    path.write_text(MINI_CONFIG.replace("n = 600", f"n = {dataset_n}")
                    .replace("n_samples = 64", f"n_samples = {n_samples}"))
    out = tmp_path / "out"
    assert main(["w2-sweep", "--config", str(path), "--checkpoint", ckpt,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep: ") and "Traceback" not in err
    assert not out.exists()


def test_nll_point_count_above_dataset_size_is_a_config_error(mini_checkpoint, tmp_path,
                                                              capsys):
    config, ckpt = mini_checkpoint
    path = tmp_path / "few.ini"
    path.write_text(MINI_CONFIG.replace("n = 600", "n = 6")
                    .replace("n_points = 2", "n_points = 50"))
    out = tmp_path / "out"
    assert main(["nll", "--config", str(path), "--checkpoint", ckpt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad nll: ") and "Traceback" not in err
    assert not out.exists()
