import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hammcert as hc
from hammcert import cli
from hammcert.cli import main

CFG = str(hc.example_config_path())


def run(tmp_path, *args, out_name="report.json"):
    out = tmp_path / out_name
    code = main([*args, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


class TestLoadConfig:
    def test_example_loads(self):
        spec = hc.load_config(CFG)
        assert spec.n == 2

    def test_root_copy_matches_packaged_config(self):
        # README promises that they are the same file, byte for byte
        root = Path(__file__).resolve().parents[1] / "example.cfg"
        assert root.read_bytes() == Path(CFG).read_bytes()

    def test_missing_file(self):
        with pytest.raises(hc.ConfigError, match="does not exist"):
            hc.load_config("missing.cfg")

    def test_negative_lambda_cites_c6(self):
        doc = json.loads(Path(CFG).read_text())
        doc["components"][0]["lambda"] = -1
        with pytest.raises(hc.ConfigError, match=r"components\[0\].lambda.*C6"):
            hc.spec_from_dict(doc)

    def test_bad_window(self):
        doc = json.loads(Path(CFG).read_text())
        doc["components"][0]["window"] = [0.5, 0.2]
        with pytest.raises(hc.ConfigError, match=r"components\[0\].window"):
            hc.spec_from_dict(doc)

    def test_bad_expression_names_key(self):
        doc = json.loads(Path(CFG).read_text())
        doc["components"][1]["f"] = "u3 + 1"
        with pytest.raises(hc.ConfigError, match=r"components\[1\].f"):
            hc.spec_from_dict(doc)

    def test_corrupted_dk_rejected_at_load(self):
        doc = json.loads(Path(CFG).read_text())
        doc["components"][0]["kernel"] = {
            "k": "0.25 + pos(0.5-s) - pos(t-s)", "dk_dt": "-0.9*step(t-s)",
            "breakpoints": [0.5], "moving_breakpoint": True}
        with pytest.raises(hc.ConfigError, match="C3"):
            hc.spec_from_dict(doc)

    def test_unknown_key_rejected(self):
        doc = json.loads(Path(CFG).read_text())
        doc["solver"] = {"nodez": 12}
        with pytest.raises(hc.ConfigError, match="unknown key"):
            hc.spec_from_dict(doc)


class TestCommands:
    def test_constants(self, tmp_path):
        code, report, _ = run(tmp_path, "constants", CFG)
        assert code == 0
        recs = report["components"][0]["constants"]
        assert recs["recip_m0"]["computed"] == pytest.approx(0.375, abs=1e-6)
        assert recs["recip_M"]["computed"] == pytest.approx(9 / 64, abs=1e-6)
        flagged = {(f["component"], f["constant"]) for f in report["discrepancies"]}
        assert (2, "recip_m0") in flagged and (2, "recip_M") in flagged
        assert "config_hash" in report

    def test_certify_exit_zero(self, tmp_path):
        code, report, _ = run(tmp_path, "certify", CFG, "--mode", "Sstar",
                              "--rho1", "1e-3", "--rho2", "1")
        assert code == 0
        assert report["certified"] is True

    def test_certify_not_certified_exit_ten(self, tmp_path):
        code, report, _ = run(tmp_path, "certify", CFG, "--mode", "Sstar",
                              "--rho1", "1e-3", "--rho2", "1",
                              "--set", "eta21=0.500001")
        assert code == 10
        assert report["certified"] is False

    def test_certify_missing_config_exit_one(self, tmp_path, capsys):
        code = main(["certify", "missing.cfg", "--mode", "Sstar",
                     "--rho1", "1e-3", "--rho2", "1"])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_certify_missing_bounds_block(self, tmp_path):
        code = main(["certify", CFG, "--mode", "Sstar",
                     "--rho1", "0.5", "--rho2", "1"])
        assert code == 1

    def test_nonexistence(self, tmp_path):
        code, report, _ = run(
            tmp_path, "certify-nonexistence", CFG, "--rho", "1",
            "--setI", "2", "--setJ", "1", "--set", "lambda1=31",
            "--set", "eta11=1", "--set", "lambda2=1", "--set", "eta21=1")
        assert code == 10
        assert any("differs" in n for n in report["notes"])
        code2, report2, _ = run(
            tmp_path, "certify-nonexistence", CFG, "--rho", "1",
            "--setI", "2", "--setJ", "1", "--set", "lambda1=31",
            "--set", "eta11=1", "--set", "lambda2=0.1", "--set", "eta21=0.1",
            out_name="r2.json")
        assert code2 == 0 and report2["certified"] is True

    def test_falsify(self, tmp_path):
        code, report, _ = run(tmp_path, "falsify", CFG, "--rho", "1",
                              "--samples", "50")
        assert code == 0
        assert report["falsified"] is False

    def test_solve_with_localization_and_csv(self, tmp_path):
        csv_path = tmp_path / "solution.csv"
        out = tmp_path / "solve.json"
        code = main(["solve", CFG, "--rho1", "1e-3", "--rho2", "1",
                     "--solution-csv", str(csv_path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["converged"] and report["localized"] and report["cone_member"]
        state = hc.state_from_csv(csv_path)
        assert state.n == 2

    def test_estimate(self, tmp_path):
        code, report, _ = run(tmp_path, "estimate", CFG, "--rho", "1",
                              "--samples", "20")
        assert code == 0
        assert report["rigorous"] is False

    def test_sweep(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        out = tmp_path / "sweep.json"
        code = main(["sweep", CFG, "--axis", "lambda1:0:0.1:3",
                     "--axis", "eta11:0:0.5:3", "--mode", "Sstar",
                     "--rho1", "1e-3", "--rho2", "1", "--i0", "1",
                     "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert sum(report["counts"].values()) == 9
        assert csv_path.read_text().startswith("lambda1,eta11,verdict")

    def test_bad_axis(self, capsys):
        code = main(["sweep", CFG, "--axis", "lambda1:0:1", "--mode", "Sstar",
                     "--rho1", "1e-3", "--rho2", "1"])
        assert code == 1

    def test_bad_parameter_name(self, capsys):
        code = main(["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3",
                     "--rho2", "1", "--set", "mu1=3"])
        assert code == 1

    @staticmethod
    def config_with_w1(tmp_path, w):
        doc = json.loads(Path(CFG).read_text())
        doc["components"][0]["w"] = w
        cfg = tmp_path / "w1.cfg"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    @pytest.mark.parametrize("w", ["exp(1000)", "10^400 + val(1,0)",
                                   "int(u1^2)^(-1)"])
    def test_solve_reports_non_finite_functional_as_divergence(self, tmp_path, w):
        code, report, _ = run(tmp_path, "solve", self.config_with_w1(tmp_path, w))
        assert code == 20
        assert report["notes"][0].startswith("iteration diverged at step 1: "
                                             "non-finite result")

    # int(u1^2) vanishes only at the zero state, which falsify never samples,
    # so 0^(-1) stands in for the domain error there
    @pytest.mark.parametrize("w", ["exp(1000)", "10^400 + val(1,0)",
                                   "0^(-1) + val(1,0)"])
    def test_falsify_reports_non_finite_functional_as_error(self, tmp_path,
                                                            capsys, w):
        code, _, _ = run(tmp_path, "falsify", self.config_with_w1(tmp_path, w),
                         "--rho", "1", "--samples", "5")
        assert code == 1
        assert "non-finite result in subexpression" in capsys.readouterr().err

    @pytest.mark.parametrize("w,subexpr", [
        ("val(1,0)*10^300*10^300", "val(1, 0.0) * 10 ^ 300 * 10 ^ 300"),
        ("10^300*10^300 - 10^300*10^300", "10 ^ 300 * 10 ^ 300"),
    ])
    def test_falsify_rejects_overflowing_functional(self, tmp_path, capsys, w,
                                                    subexpr):
        code, report, _ = run(tmp_path, "falsify", self.config_with_w1(tmp_path, w),
                              "--rho", "1", "--samples", "5")
        assert code == 1 and report is None
        assert f"non-finite result in subexpression {subexpr!r}" in \
            capsys.readouterr().err

    def test_solve_reports_overflowing_functional_as_divergence(self, tmp_path):
        w = "10^300*10^300 - 10^300*10^300"
        code, report, _ = run(tmp_path, "solve", self.config_with_w1(tmp_path, w))
        assert code == 20
        assert report["notes"][0] == ("iteration diverged at step 1: non-finite "
                                      "result in subexpression '10 ^ 300 * 10 ^ 300'")


MODE_S_DOC = {
    # one-component problem where mode S genuinely certifies: f = 1 + pos(u1)
    # admits the steep growth constant delta~ = 100 on the tiny rho1-box
    # (1 + x >= 100 x for x <= 1/99) and stays below 41 on the rho2 = 40
    # box, so lambda = 1/2 satisfies both
    #   I0:  0.5 * 100 * (1/3) * (9/64) = 75/32 >= 1
    #   I1:  0.5 * 41 * max(3/8, 1)    = 20.5  <= 40
    "n": 1,
    "components": [{
        "kernel": "example-k1",
        "window": [0, "3/8"],
        "lambda": 0.5,
        "f": "1 + pos(u1)",
        "w": "1",
        "envelope": {"phi0": "3/4"},
        "gammas": [],
    }],
    "bounds": [
        {"rho": 0.01, "components": [{"w_lo": 1, "w_hi": 1, "delta_tilde": 100,
                                      "h": []}]},
        {"rho": 40.0, "components": [{"w_lo": 1, "w_hi": 1, "f_hi": 41,
                                      "h": []}]},
    ],
}


class TestModeS:
    def test_cli_mode_s_certifies(self, tmp_path):
        import json as _json
        cfg = tmp_path / "mode_s.cfg"
        cfg.write_text(_json.dumps(MODE_S_DOC))
        out = tmp_path / "s.json"
        code = main(["certify", str(cfg), "--mode", "S", "--rho1", "0.01",
                     "--rho2", "40", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0 and report["certified"] is True
        inner, outer = report["children"]
        assert inner["kind"] == "I0" and outer["kind"] == "I1"
        i0 = {r["label"]: r for r in report["rows"]}["i=1"]
        assert i0["lhs"] == pytest.approx(0.5 * 100 * (1 / 3) * (9 / 64), abs=1e-9)
        # the declared bounds survive sampling on both radii
        for rho in ("0.01", "40"):
            assert main(["falsify", str(cfg), "--rho", rho, "--samples", "50",
                         "--out", str(tmp_path / f"f{rho}.json")]) == 0

    def test_cli_mode_s_fails_when_lambda_too_small(self, tmp_path):
        import json as _json
        cfg = tmp_path / "mode_s.cfg"
        cfg.write_text(_json.dumps(MODE_S_DOC))
        code = main(["certify", str(cfg), "--mode", "S", "--rho1", "0.01",
                     "--rho2", "40", "--set", "lambda1=0.1",
                     "--out", str(tmp_path / "s2.json")])
        rep = json.loads((tmp_path / "s2.json").read_text())
        assert code == 10 and rep["certified"] is False

    def test_falsify_witness_dir(self, tmp_path):
        import json as _json
        doc = _json.loads(Path(CFG).read_text())
        doc["bounds"][0]["components"][0]["w_hi"] = 0.5  # deliberately wrong
        cfg = tmp_path / "wrong.cfg"
        cfg.write_text(_json.dumps(doc))
        out = tmp_path / "f.json"
        wdir = tmp_path / "witnesses"
        code = main(["falsify", str(cfg), "--rho", "1", "--samples", "200",
                     "--witness-dir", str(wdir), "--out", str(out)])
        assert code == 10
        report = json.loads(out.read_text())
        assert report["falsified"] is True
        csvs = sorted(wdir.glob("witness-*.csv"))
        assert csvs
        state = hc.state_from_csv(csvs[0])
        assert state.n == 2


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        _, _, a = run(tmp_path, "certify", CFG, "--mode", "Sstar",
                      "--rho1", "1e-3", "--rho2", "1", out_name="a.json")
        _, _, b = run(tmp_path, "certify", CFG, "--mode", "Sstar",
                      "--rho1", "1e-3", "--rho2", "1", out_name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_falsify_deterministic(self, tmp_path):
        _, _, a = run(tmp_path, "falsify", CFG, "--rho", "1", "--samples", "20",
                      "--seed", "3", out_name="a.json")
        _, _, b = run(tmp_path, "falsify", CFG, "--rho", "1", "--samples", "20",
                      "--seed", "3", out_name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_notes_independent_of_hash_seed(self, tmp_path):
        # two declared integral norms per component differ from the computed
        # ones, so the outer certificate carries four such notes; they must
        # come out in the order the rows read the constants
        doc = json.loads(Path(CFG).read_text())
        for comp in doc["components"]:
            comp["declared"].update({"recip_m1": 2, "dgamma_sup": [3]})
        cfg = tmp_path / "flagged.cfg"
        cfg.write_text(json.dumps(doc))
        src = str(Path(hc.__file__).resolve().parents[1])
        procs = [subprocess.Popen(
            [sys.executable, "-m", "hammcert.cli", "certify", str(cfg),
             "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1"],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
            for seed in (1, 2, 3, 4)]
        reports = [p.communicate()[0] for p in procs]
        assert [p.returncode for p in procs] == [0] * 4
        assert reports[1:] == reports[:1] * 3
        symbols = [n.split(":")[0] for n in json.loads(reports[0])["notes"][1:-1]]
        assert symbols == ["constant 1/m_{1,1}", "constant ||gamma_{1,1}'||_inf",
                           "constant 1/m_{2,0}", "constant 1/m_{2,1}",
                           "constant ||gamma_{2,1}'||_inf"]


SWEEP = ["sweep", CFG, "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1"]
NO_BLOCK = "bounds: no declared-bounds block at rho = 0.5"

# flag errors that are found before the cone constants are assembled
BEFORE_ASSEMBLY = [
    (["certify", CFG, "--mode", "Sstar", "--rho1", "0.5", "--rho2", "1"], NO_BLOCK),
    (["certify-nonexistence", CFG, "--rho", "0.5", "--setI", "2", "--setJ", "1"],
     NO_BLOCK),
    (["falsify", CFG, "--rho", "0.5", "--samples", "2"], NO_BLOCK),
    (["sweep", CFG, "--axis", "lambda1:0:0.1:2", "--mode", "S", "--rho1", "0.5",
      "--rho2", "1"], NO_BLOCK),
    (["sweep", CFG, "--axis", "lambda1:0:0.1:2", "--mode", "S", "--rho1", "1e-3",
      "--rho2", "0.5"], NO_BLOCK),
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--axis", "lambda1:5:6:2"],
     "lambda1: sets the same parameter as axis 'lambda1'"),
    ([*SWEEP, "--axis", "eta21:0:0.1:2", "--axis", "eta2_1:5:6:2"],
     "eta2_1: sets the same parameter as axis 'eta21'"),
    ([*SWEEP, "--axis", "lambda3:0:0.1:2"], "lambda3: component index out of range 1..2"),
    (["falsify", CFG, "--rho", "1", "--samples", "0"], "bad --samples 0"),
    (["estimate", CFG, "--rho", "1", "--samples", "0"], "bad --samples 0"),
    (["estimate", CFG, "--rho", "0", "--samples", "2"], "bad --rho 0.0"),
]


class TestBadFlags:
    @pytest.mark.parametrize("argv,message", [
        ([*SWEEP, "--axis", "lambda1:0:x:3"], "bad --axis 'lambda1:0:x:3'"),
        ([*SWEEP, "--axis", "lambda1:0:1:2.5"], "bad --axis 'lambda1:0:1:2.5'"),
        ([*SWEEP, "--axis", "lambda1:0:1:0"], "bad --axis 'lambda1:0:1:0'"),
        ([*SWEEP, "--axis", "lambda1:nan:nan:2"], "bad --axis 'lambda1:nan:nan:2'"),
        ([*SWEEP, "--axis", "lambda1:0:1:2", "--set", "lambda1=abc"],
         "bad --set 'lambda1=abc'"),
        (["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1",
          "--set", "lambda1=nan"], "lambda1: expected a finite number, got nan"),
        (["certify-nonexistence", CFG, "--rho", "1", "--setI", "x", "--setJ", "1"],
         "bad --setI 'x'"),
        *BEFORE_ASSEMBLY,
    ])
    def test_exits_one_naming_the_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv,message", BEFORE_ASSEMBLY)
    def test_flag_errors_come_before_assembly(self, monkeypatch, capsys, argv,
                                              message):
        def assemble(spec):
            raise AssertionError("cone constants assembled")

        monkeypatch.setattr(cli, "assemble_cone_constants", assemble)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("first,second", [("lambda1:0:0.1:2", "lambda1:5:6:2"),
                                              ("eta21:0:0.1:2", "eta2_1:5:6:2")])
    def test_duplicate_axes_exit_one(self, tmp_path, capsys, first, second):
        table, out = tmp_path / "t.csv", tmp_path / "report.json"
        argv = [*SWEEP, "--axis", first, "--axis", second, "--i0", "1",
                "--csv", str(table), "--out", str(out)]
        assert main(argv) == 1
        assert not table.exists() and not out.exists()
        name, prior = second.split(":")[0], first.split(":")[0]
        assert capsys.readouterr().err == \
            f"error: {name}: sets the same parameter as axis {prior!r}\n"


PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# sha256 of the sweep `--out` report, its output-path line left out, and of
# its `--csv` file, recorded before the grid was evaluated column-wise;
# numpy 2.4.6 on x86-64
SWEEP_CLI_PINS = {
    "criterion9": ("74af2cf5b51946d21e9d1d24b228db54bbc6155633e7d99b2e868628dd235d1c",
                   "1530b5c0e7ce24f7f97281a9f5d398531fb5017512e5ac9e0aaecf550fc5fe3a"),
    "example-101": ("2cf00c13af2dbadc957a6c83f4faed371afb245ab2d09efcecd833f46f07d1fc",
                    "61b0cefb7a7c4291df78f6cd365f35a585db1fc74ae1f34150fd5ddb723666ad"),
    "tight-101": ("6353d3b7299d2225d9dad18677f28c927c9fff506b8b2b8a8d9ab41930f589d9",
                  "b8e023e59320a43160ab896e28302b112911afa85296bb9e73c492f50f6d51bf"),
}

SWEEP_CLI_CASES = {
    "criterion9": (PERFBENCH_CONFIGS / "example-rho1e-4.cfg", 11, "1e-4"),
    "example-101": (CFG, 101, "1e-3"),
    "tight-101": (PERFBENCH_CONFIGS / "tight.cfg", 101, "1e-3"),
}


def sweep_cli_digests(tmp_path, case):
    config, steps, rho1 = SWEEP_CLI_CASES[case]
    out, table = tmp_path / f"{case}.json", tmp_path / f"{case}.csv"
    code = main(["sweep", str(config), "--axis", f"lambda1:0:0.1:{steps}",
                 "--axis", f"eta11:0:0.5:{steps}", "--mode", "Sstar",
                 "--rho1", rho1, "--rho2", "1", "--i0", "1",
                 "--nonexistence-rho", "1", "--setI", "2", "--setJ", "1",
                 "--csv", str(table), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines(keepends=True)
    kept = [line for line in lines if str(table) not in line]
    assert len(kept) == len(lines) - 1
    return (hashlib.sha256("".join(kept).encode()).hexdigest(),
            hashlib.sha256(table.read_bytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(SWEEP_CLI_CASES))
def test_sweep_reports_pinned(tmp_path, case):
    assert sweep_cli_digests(tmp_path, case) == SWEEP_CLI_PINS[case]
