"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--chip", "chip2", "--resolution", "24", "--samples", "8",
             "--output", "out.npz"]
        )
        assert args.chip == "chip2" and args.resolution == 24 and args.samples == 8

    def test_unknown_chip_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--chip", "chip9", "--output", "x.npz"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "d.npz"])
        assert args.model == "sau_fno" and args.epochs == 20

    def test_serve_defaults_and_models(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8471 and args.models == []
        args = build_parser().parse_args(["serve", "--model", "a.npz", "--model", "b.npz"])
        assert args.models == ["a.npz", "b.npz"]

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--max-batch-size", "4"], ["--batch-wait-ms", "1"]]
    )
    def test_serve_has_no_batching_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--output", "x.npz", "--exec", "processes"],
            ["generate", "--output", "x.npz", "--exec-workers", "2"],
            ["generate", "--output", "x.npz", "--fleet", "http://x"],
            ["generate", "--output", "x.npz", "--shards", "2"],
            ["serve", "--exec", "processes"],
            ["serve", "--exec-workers", "2"],
            pytest.param(["serve", "--fallback"], id="serve--fallback"),
            ["serve", "--breaker-threshold", "1"],
            ["serve", "--breaker-cooldown", "1"],
            ["serve", "--chaos", "x"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_plane_and_fleet_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_route_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--replica", "http://127.0.0.1:8471"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'route'" in capsys.readouterr().err


class TestCommands:
    def test_chips_lists_all_designs(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        for name in ("chip1", "chip2", "chip3"):
            assert name in out

    def test_solve_uniform_power(self, capsys):
        assert main(["solve", "--chip", "chip1", "--resolution", "12",
                     "--total-power", "30", "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert "Max (K)" in out and "core_layer" in out

    def test_solve_with_explicit_powers(self, capsys):
        powers = json.dumps({"core_layer/Core": 20.0})
        assert main(["solve", "--chip", "chip1", "--resolution", "12", "--powers", powers]) == 0
        assert "Steady-state solution (fvm backend)" in capsys.readouterr().out

    def test_solve_malformed_powers_json(self, capsys):
        assert main(["solve", "--chip", "chip1", "--resolution", "12",
                     "--powers", "{not json"]) == 2
        captured = capsys.readouterr()
        assert "malformed power JSON" in captured.err
        assert "Steady-state" not in captured.out

    def test_solve_unknown_block_name(self, capsys):
        powers = json.dumps({"core_layer/NoSuchBlock": 5.0})
        assert main(["solve", "--chip", "chip1", "--resolution", "12",
                     "--powers", powers]) == 2
        assert "unknown block 'core_layer/NoSuchBlock'" in capsys.readouterr().err

    def test_solve_negative_power_rejected(self, capsys):
        powers = json.dumps({"core_layer/Core": -2.0})
        assert main(["solve", "--chip", "chip1", "--resolution", "12",
                     "--powers", powers]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_generate_then_train_roundtrip(self, tmp_path, capsys):
        dataset_path = tmp_path / "tiny.npz"
        assert main(["generate", "--chip", "chip1", "--resolution", "12",
                     "--samples", "8", "--output", str(dataset_path)]) == 0
        assert dataset_path.exists()

        model_path = tmp_path / "model.npz"
        assert main(["train", "--dataset", str(dataset_path), "--model", "fno",
                     "--epochs", "1", "--batch-size", "4", "--width", "8",
                     "--modes", "3", "--output", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "Held-out metrics" in out
        assert model_path.exists()
        with np.load(model_path) as archive:
            assert len(archive.files) > 0
            assert "__config__" in archive.files

        # The saved weights are self-describing: the serving model registry
        # can rebuild the model without re-specifying the architecture.
        from repro.operators.factory import load_operator

        loaded = load_operator(str(model_path))
        assert loaded.name == "fno"
        assert loaded.chip_name == "chip1"
        assert loaded.resolution == 12
        assert loaded.has_normalizers
        prediction = loaded.predict(np.zeros((1, loaded.in_channels, 12, 12), dtype=np.float32))
        assert prediction.shape == (1, loaded.out_channels, 12, 12)

    def test_train_gar_without_output(self, tmp_path, capsys):
        dataset_path = tmp_path / "tiny.npz"
        main(["generate", "--chip", "chip1", "--resolution", "12", "--samples", "8",
              "--output", str(dataset_path)])
        assert main(["train", "--dataset", str(dataset_path), "--model", "gar"]) == 0
        assert "Held-out metrics" in capsys.readouterr().out

    def test_solve_with_hotspot_and_transient_backends(self, capsys):
        for backend in ("hotspot", "transient"):
            assert main(["solve", "--chip", "chip1", "--resolution", "10",
                         "--backend", backend, "--total-power", "30"]) == 0
            assert f"({backend} backend)" in capsys.readouterr().out

    def test_solve_operator_backend_with_trained_model(self, tmp_path, capsys):
        dataset_path = tmp_path / "tiny.npz"
        model_path = tmp_path / "model.npz"
        main(["generate", "--chip", "chip1", "--resolution", "12", "--samples", "8",
              "--output", str(dataset_path)])
        main(["train", "--dataset", str(dataset_path), "--model", "fno", "--epochs", "1",
              "--batch-size", "4", "--width", "8", "--modes", "3",
              "--output", str(model_path)])
        capsys.readouterr()
        assert main(["solve", "--chip", "chip1", "--resolution", "12",
                     "--backend", "operator", "--model", str(model_path),
                     "--total-power", "30"]) == 0
        assert "(operator backend)" in capsys.readouterr().out


class TestErrorHandling:
    """Every subcommand exits 2 with a one-line message on bad user input."""

    def test_solve_operator_without_model_exits_2(self, capsys):
        assert main(["solve", "--chip", "chip1", "--backend", "operator",
                     "--total-power", "30"]) == 2
        assert "needs at least one --model" in capsys.readouterr().err

    def test_solve_unknown_model_file_exits_2(self, capsys):
        assert main(["solve", "--chip", "chip1", "--backend", "operator",
                     "--model", "/nonexistent/weights.npz", "--total-power", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err

    def test_solve_model_chip_mismatch_exits_2(self, tmp_path, capsys):
        """A model trained for chip1 cannot answer a chip2 query."""
        dataset_path = tmp_path / "tiny.npz"
        model_path = tmp_path / "model.npz"
        main(["generate", "--chip", "chip1", "--resolution", "12", "--samples", "8",
              "--output", str(dataset_path)])
        main(["train", "--dataset", str(dataset_path), "--model", "fno", "--epochs", "1",
              "--batch-size", "4", "--width", "8", "--modes", "3",
              "--output", str(model_path)])
        capsys.readouterr()
        assert main(["solve", "--chip", "chip2", "--resolution", "12",
                     "--backend", "operator", "--model", str(model_path),
                     "--total-power", "30"]) == 2
        assert "no operator model registered for chip 'chip2'" in capsys.readouterr().err

    def test_train_missing_dataset_exits_2(self, capsys):
        assert main(["train", "--dataset", "/nonexistent/data.npz"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err

    def test_train_non_dataset_file_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"this is not a dataset")
        assert main(["train", "--dataset", str(bogus)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_unknown_model_file_exits_2(self, capsys):
        assert main(["serve", "--model", "/nonexistent/weights.npz", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err
