import argparse
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


def edited_example(edit):
    """An argv entry for a copy of example.cfg changed by edit(doc); the copy
    is written into the test's tmp directory when the argv is run."""
    def write(tmp):
        doc = json.loads(Path(CFG).read_text())
        edit(doc)
        path = tmp / "edited.cfg"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _resolved(argv, tmp):
    """argv with each edited_example entry written to tmp and read as its path."""
    return [a(tmp) if callable(a) else a for a in argv]


def _negative_f_hi(doc):
    for cb in doc["bounds"][0]["components"]:
        cb["f_hi"] = -1


def _negative_xi(doc):
    cb = doc["bounds"][0]["components"][1]
    cb["xi_tilde"] = cb["h"][0]["xi"] = -1


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
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--set", "lambda1=1"],
     "lambda1: --set sets the same parameter as axis 'lambda1'"),
    ([*SWEEP, "--set", "eta2_1=1", "--axis", "lambda1:0:0.1:2", "--axis", "eta21:0:1:2"],
     "eta2_1: --set sets the same parameter as axis 'eta21'"),
    (["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1", "--i0", "3"],
     "i0: component index out of range 1..2"),
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--i0", "0"],
     "i0: component index out of range 1..2"),
    (["certify-nonexistence", CFG, "--rho", "1", "--setI", "1,2", "--setJ", "2"],
     "setI/setJ: I=[1, 2] and J=[2] must partition 1..2"),
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--nonexistence-rho", "1", "--setI", "1",
      "--setJ", "1"], "setI/setJ: I=[1] and J=[1] must partition 1..2"),
    (["certify", CFG, "--mode", "S", "--rho1", "1", "--rho2", "1e-3"],
     "rho1/rho2: need rho1 < rho2, got 1.0 >= 0.001"),
    (["solve", CFG, "--rho1", "1e-3"], "--rho1 needs --rho2"),
    (["solve", CFG, "--rho2", "1"], "--rho2 needs --rho1"),
    (["solve", CFG, "--rho1", "1", "--rho2", "1e-3"],
     "rho1/rho2: need rho1 < rho2, got 1.0 >= 0.001"),
    (["solve", CFG, "--rho1", "-1", "--rho2", "nan"], "bad --rho1 -1.0"),
    (["solve", CFG, "--rho1", "1e-3", "--rho2", "nan"], "bad --rho2 nan"),
    (["solve", CFG, "--rho1", "0", "--rho2", "inf"], "bad --rho1 0.0"),
    (["solve", CFG, "--rho1", "1e-3", "--rho2", "inf"], "bad --rho2 inf"),
    ([*SWEEP, "--axis", "lambda1:0:0.1:3", "--setI", "1", "--setJ", "2"],
     "--setI and --setJ need --nonexistence-rho"),
    (["falsify", CFG, "--rho", "1", "--samples", "3", "--seed", "-1"], "bad --seed -1"),
    (["estimate", CFG, "--rho", "inf", "--samples", "2"], "bad --rho inf"),
    (["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "inf"],
     "bad --rho2 inf"),
    (["certify-nonexistence", CFG, "--rho", "inf", "--setI", "2", "--setJ", "1"],
     "bad --rho inf"),
    (["falsify", CFG, "--rho", "inf", "--samples", "2"], "bad --rho inf"),
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--rho2", "inf"], "bad --rho2 inf"),
    ([*SWEEP, "--axis", "lambda1:0:0.1:2", "--nonexistence-rho", "inf", "--setI", "2",
      "--setJ", "1"], "bad --nonexistence-rho inf"),
    # f >= 0 (C4) and h >= 0 (C7): a negative upper bound would make every
    # I1 row, and row I:i=2 of the nonexistence test, hold at these points
    (["certify", edited_example(_negative_f_hi), "--mode", "Sstar", "--rho1", "1e-3",
      "--rho2", "1", "--set", "lambda1=100", "--set", "lambda2=100"],
     "bounds[0].components[0]: f_hi must be nonnegative (C4)"),
    (["certify-nonexistence", edited_example(_negative_xi), "--rho", "1", "--setI", "2",
      "--setJ", "1", "--set", "lambda1=31", "--set", "eta11=1", "--set", "lambda2=100",
      "--set", "eta21=100"], "bounds[0].components[1].h[0]: xi must be nonnegative (C7)"),
]


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["certify", "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1"],
    ["certify-nonexistence", "--rho", "1", "--setI", "2", "--setJ", "1"],
    ["falsify", "--rho", "1", "--samples", "2"],
    ["estimate", "--rho", "1", "--samples", "2"],
    ["solve"],
    ["sweep", "--axis", "lambda1:0:0.1:3", "--mode", "Sstar", "--rho1", "1e-3",
     "--rho2", "1"],
    ["sweep", "--axis", "lambda1:0:0.1:3", "--mode", "Sstar", "--rho1", "1e-3",
     "--rho2", "1", "--csv", "table.csv"],
], ids=["constants", "certify", "certify-nonexistence", "falsify", "estimate", "solve",
        "sweep", "sweep-csv"])
def test_every_report_carries_the_config_hash(tmp_path, argv):
    # main stamps every command's report in one place
    command, *flags = argv
    code, report, _ = run(tmp_path, command, CFG,
                          *(str(tmp_path / f) if f.endswith(".csv") else f for f in flags))
    assert code in (0, 10)
    assert report["config_hash"] == hashlib.sha256(Path(CFG).read_bytes()).hexdigest()


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
        assert main([*_resolved(argv, tmp_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv,message", BEFORE_ASSEMBLY)
    def test_flag_errors_come_before_assembly(self, monkeypatch, capsys, tmp_path,
                                              argv, message):
        def assemble(spec):
            raise AssertionError("cone constants assembled")

        monkeypatch.setattr(cli, "assemble_cone_constants", assemble)
        assert main(_resolved(argv, tmp_path)) == 1
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

    @pytest.mark.parametrize("argv", [
        lambda tmp: ["constants", str(tmp)],
        lambda tmp: ["constants", CFG, "--out", str(tmp / "nodir" / "x.json")],
        lambda tmp: ["solve", CFG, "--solution-csv", str(tmp / "nodir" / "s.csv")],
        lambda tmp: ["falsify", CFG, "--rho", "1", "--samples", "2",
                     "--witness-dir", str(tmp / "file")],
        lambda tmp: [*SWEEP, "--axis", "lambda1:0:0.1:3", "--i0", "1",
                     "--csv", str(tmp / "nodir" / "t.csv")],
    ], ids=["config-dir", "out", "solution-csv", "witness-dir", "sweep-csv"])
    def test_file_errors_exit_one(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        assert main(argv(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("axis,pairs,nonexistence", [
    ("lambda1:0:0.1:3", ["lambda2=3"], False),
    ("lambda1:0:0.1:3", ["lambda2=3"], True),
    ("lambda1:0:40:5", ["lambda2=1.5", "eta11=0.2"], True),
    ("lambda1:0:40:5", ["lambda2=1.1", "eta21=0.4"], True),  # certifies at 40
])
def test_sweep_rows_match_certificates_at_set_point(tmp_path, monkeypatch, example_cc,
                                                    axis, pairs, nonexistence):
    # each row's verdict is that of the point's own certify/certify-nonexistence
    # under the same --set overrides
    monkeypatch.setattr(cli, "assemble_cone_constants", lambda spec: example_cc)
    existence = ["--mode", "Sstar", "--i0", "1", "--rho1", "1e-3", "--rho2", "1"]
    nonex = ["--setI", "2", "--setJ", "1"]
    sets = [arg for pair in pairs for arg in ("--set", pair)]
    code, report, _ = run(tmp_path, "sweep", CFG, "--axis", axis, *existence, *sets,
                          *(["--nonexistence-rho", "1", *nonex] if nonexistence else []))
    assert code == 0
    name = axis.split(":")[0]
    for row in report["rows"]:
        point = [*sets, "--set", f"{name}={row[name]!r}"]
        verdicts = []
        if run(tmp_path, "certify", CFG, *existence, *point)[0] == 0:
            verdicts.append("existence-certified")
        if nonexistence and run(tmp_path, "certify-nonexistence", CFG, "--rho", "1",
                                *nonex, *point)[0] == 0:
            verdicts.append("nonexistence-certified")
        assert [row["verdict"]] == (verdicts or ["undetermined"]), row


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


# sha256 of the `constants` report of each bundled config: every record's key,
# symbol, computed, declared and used value and flags, the envelope modes and
# the config hash; recorded before ConeConstants kept each constant only as its
# record; numpy 2.4.6 on x86-64
CONSTANTS_REPORT_PINS = {
    "example.cfg": "b8f3fc1aca75806aaf799d2c2de57dff6375db189ae92be8fbc9a810dadb71d2",
    "tight.cfg": "5ab932c5d945584c1ccaebed24c81baf2b32aa096004e2be00b999a0e0d4f0ca",
    "example-rho1e-4.cfg":
        "c02759b4d171e2a04287f0e4f2611648c593e6fa3eacc6a9143b6a91f0983cee",
}


@pytest.mark.parametrize("config", [Path(CFG), PERFBENCH_CONFIGS / "tight.cfg",
                                    PERFBENCH_CONFIGS / "example-rho1e-4.cfg"],
                         ids=lambda path: path.name)
def test_constants_reports_pinned(tmp_path, config):
    code, _, out = run(tmp_path, "constants", str(config))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        CONSTANTS_REPORT_PINS[config.name]


CERTIFY = ["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1"]


class TestOneParser:
    """main parses with one parser per process, and parsing leaves no state."""

    def test_built_once_per_process(self, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        per_build = len(built)
        assert per_build == 8  # the top parser and its seven subparsers
        built.clear()
        cli._parser.cache_clear()
        for k in range(3):
            assert run(tmp_path, *CERTIFY, out_name=f"{k}.json")[0] == 0
        assert len(built) == per_build

    def test_a_failed_parse_leaves_no_state(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["certify"])
        assert exit_.value.code == 2
        capsys.readouterr()
        assert run(tmp_path, *CERTIFY)[0] == 0

    def test_a_set_does_not_carry_over(self, tmp_path):
        assert run(tmp_path, *CERTIFY, "--set", "eta21=0.500001")[0] == 10
        assert run(tmp_path, *CERTIFY)[0] == 0

    def test_help_matches_a_fresh_parser(self, tmp_path):
        def helps(parser):
            sub, = (a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
            return {"": parser.format_help(),
                    **{name: p.format_help() for name, p in sub.choices.items()}}

        assert run(tmp_path, *CERTIFY)[0] == 0
        kept, fresh = helps(cli._parser()), helps(cli.build_parser())
        assert len(kept) == 8 and kept == fresh


# the commands of the installed-entry-point step of CI on example.cfg; then
# whether numpy.ma was imported, which np.unique does on its first call
NUMPY_MA_SCRIPT = """
import json, sys
from hammcert.cli import main
print(json.dumps([[main(argv) for argv in json.loads(sys.argv[1])],
                  "numpy.ma" in sys.modules]))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    out = ["--out", str(tmp_path / "report.json")]
    commands = [
        ["constants", CFG], CERTIFY, ["solve", CFG, "--rho1", "1e-3", "--rho2", "1"],
        ["falsify", CFG, "--rho", "1", "--samples", "20", "--ball"],
        ["estimate", CFG, "--rho", "1", "--samples", "20"],
        ["certify-nonexistence", CFG, "--rho", "1", "--setI", "2", "--setJ", "1",
         "--set", "lambda1=31", "--set", "eta11=1", "--set", "lambda2=0.1",
         "--set", "eta21=0.1"],
        ["sweep", CFG, "--axis", "lambda1:0:0.1:3", "--mode", "Sstar", "--i0", "1",
         "--rho1", "1e-3", "--rho2", "1", "--nonexistence-rho", "1", "--setI", "2",
         "--setJ", "1", "--csv", str(tmp_path / "sweep.csv")]]
    src = str(Path(hc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NUMPY_MA_SCRIPT,
         json.dumps([argv + out for argv in commands])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 7, False]


def _h_one(doc):
    doc["components"][0]["gammas"][0]["h"] = "1 + der(1, 1/2)^2"


@pytest.mark.parametrize("argv,code", [
    (["certify-nonexistence", edited_example(_h_one), "--rho", "1", "--setI", "2",
      "--setJ", "1", "--set", "eta11=1e308"], 1),
    (["solve", edited_example(_h_one), "--set", "eta11=1e308"], 20),
])
def test_overflowing_residual_norm_is_typed(tmp_path, capsys, argv, code):
    # T(0) = 1e308 * gamma_11 is finite; its C1 norm is not.  Under the
    # suite's warnings-as-errors filter, so no step may warn either.
    message = "non-finite C1 norm in subexpression 'T(u) - u'"
    got, report, _ = run(tmp_path, *_resolved(argv, tmp_path))
    assert got == code
    if code == 1:
        assert report is None and capsys.readouterr().err == f"error: {message}\n"
    else:
        assert report["notes"][0] == f"iteration diverged at step 1: {message}"
