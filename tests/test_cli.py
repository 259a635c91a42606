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
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["gen-data", "--config", mini_config, "--out", str(out)])
        outs.append((out / "swiss-roll.tsv").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "2"],
    ["verify", "--config", "x.ini"],
    ["verify", "--out", "out"],
    ["gaussian", "--config", "x.ini"],
    ["gaussian", "--threads", "2"],
    ["gen-data", "--threads", "2"],
    ["train", "--threads", "2"],
    ["sample", "--threads", "2"],
])
def test_command_rejects_a_flag_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("schedule", [
    "kind = cosine\nt_max = 1.0",  # the tangent pole
    "kind = simple\nt_max = nan",
    "kind = simple\nbeta = nan",
    "kind = quadratic",
])
def test_bad_schedule_is_a_config_error(tmp_path, capsys, schedule):
    path = tmp_path / "bad.ini"
    path.write_text(f"[schedule]\n{schedule}\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: bad schedule: ")
