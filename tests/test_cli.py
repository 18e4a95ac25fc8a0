"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def files(tmp_path):
    db = tmp_path / "db.txt"
    db.write_text("Emp(ada)\nMgr(grace)\n")
    tgds = tmp_path / "sigma.txt"
    tgds.write_text("Emp(x) -> Person(x)\nMgr(x) -> Emp(x)\n")
    query = tmp_path / "q.txt"
    query.write_text("q(x) :- Person(x)")
    return db, tgds, query


class TestCommands:
    def test_chase(self, files, capsys):
        db, tgds, _ = files
        assert main(["chase", str(db), str(tgds)]) == 0
        out = capsys.readouterr().out
        assert "Person(ada)" in out and "Person(grace)" in out

    def test_certain(self, files, capsys):
        db, tgds, query = files
        assert main(["certain", str(db), str(tgds), str(query)]) == 0
        out = capsys.readouterr().out
        assert "('ada',)" in out and "('grace',)" in out

    def test_evaluate_inline(self, capsys):
        # -e makes *all* positional arguments inline text.
        assert main(["evaluate", "Emp(ada)", "q(x) :- Emp(x)", "-e"]) == 0
        assert "('ada',)" in capsys.readouterr().out

    def test_evaluate_files(self, files, tmp_path, capsys):
        db, _, _ = files
        query = tmp_path / "plain.txt"
        query.write_text("q(x) :- Emp(x)")
        assert main(["evaluate", str(db), str(query)]) == 0
        assert "('ada',)" in capsys.readouterr().out

    def test_rewrite_success(self, capsys):
        code = main(
            [
                "rewrite",
                "E(x, y) -> E(y, x)",
                "q() :- E(x, y), E(y, z), E(z, w), E(w, x)",
                "-e",
                "-k",
                "1",
            ]
        )
        assert code == 0
        assert "E(" in capsys.readouterr().out

    def test_rewrite_failure(self, capsys):
        code = main(
            ["rewrite", "", "q() :- E(x, y), E(y, z), E(z, x)", "-e", "-k", "1"]
        )
        assert code == 1

    def test_classify(self, capsys):
        assert main(["classify", "Emp(x) -> Person(x)", "-e"]) == 0
        out = capsys.readouterr().out
        assert "G" in out and "weakly-acyclic" in out

    def test_clique(self, capsys):
        assert main(["clique", "-k", "2", "--vertices", "6", "--probability", "0.5"]) == 0
        assert "clique" in capsys.readouterr().out

    def test_certain_inline_strategy(self, capsys):
        code = main(
            [
                "certain",
                "Emp(a)",
                "Emp(x) -> WorksFor(x, y); WorksFor(x, y) -> Comp(y)",
                "q(x) :- WorksFor(x, y), Comp(y)",
                "-e",
                "--strategy",
                "rewrite",
            ]
        )
        assert code == 0
        assert "('a',)" in capsys.readouterr().out


class TestEngineFlags:
    """--parallelism / --no-cache construct one Engine per invocation."""

    def test_chase_parallelism_same_output(self, files, capsys):
        db, tgds, _ = files
        assert main(["chase", str(db), str(tgds)]) == 0
        serial = capsys.readouterr().out
        assert main(["chase", str(db), str(tgds), "--parallelism", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_certain_parallelism_and_no_cache(self, files, capsys):
        db, tgds, query = files
        args = ["certain", str(db), str(tgds), str(query)]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        assert main(args + ["--parallelism", "2", "--no-cache"]) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("command", ["chase", "certain", "evaluate", "serve"])
    def test_parallelism_below_one_is_a_usage_error(self, command, capsys):
        """Argparse rejects N < 1 with exit 2 and its usage line, before
        any command runs (serve never binds its port)."""
        positional = {
            "chase": ["Emp(ada)", "Emp(x) -> Person(x)", "-e"],
            "certain": ["Emp(ada)", "Emp(x) -> Person(x)", "q(x) :- Person(x)", "-e"],
            "evaluate": ["Emp(ada)", "q(x) :- Emp(x)", "-e"],
            "serve": [],
        }[command]
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, *positional, "--parallelism", value])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "--parallelism" in err

    def test_evaluate_accepts_engine_flags(self, capsys):
        code = main(
            ["evaluate", "Emp(ada)", "q(x) :- Emp(x)", "-e",
             "--parallelism", "2", "--no-cache"]
        )
        assert code == 0
        assert "('ada',)" in capsys.readouterr().out

    def test_trip_exit_status_preserved_with_flags(self, capsys):
        from repro.cli import EXIT_BUDGET_TRIP

        code = main(
            [
                "chase",
                "E(c0, c1)",
                "E(x, y) -> E(y, z)",
                "-e",
                "--max-atoms",
                "5",
                "--parallelism",
                "2",
            ]
        )
        assert code == EXIT_BUDGET_TRIP
        err = capsys.readouterr().err
        assert "BUDGET TRIPPED" in err

    def test_evaluate_trip_exit_status(self, capsys):
        from repro.cli import EXIT_BUDGET_TRIP

        code = main(
            ["evaluate", "Emp(a), Emp(b), Emp(c)", "q(x) :- Emp(x)", "-e",
             "--timeout", "0"]
        )
        assert code == EXIT_BUDGET_TRIP


class TestCorruptResume:
    """--resume on a damaged checkpoint: one diagnostic line, exit 2."""

    INFINITE = ["chase", "E(c0, c1)", "E(x, y) -> E(y, z)", "-e"]

    def _tripped_checkpoint(self, tmp_path, capsys):
        from repro.cli import EXIT_BUDGET_TRIP

        code = main(
            self.INFINITE
            + ["--max-atoms", "5", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == EXIT_BUDGET_TRIP
        capsys.readouterr()
        path = tmp_path / "chase.checkpoint.json"
        assert path.exists()
        return path

    def test_happy_resume_still_works(self, tmp_path, capsys):
        from repro.cli import EXIT_BUDGET_TRIP

        path = self._tripped_checkpoint(tmp_path, capsys)
        code = main(
            self.INFINITE + ["--resume", str(path), "--max-atoms", "7"]
        )
        assert code == EXIT_BUDGET_TRIP  # further along, tripped again
        assert "BUDGET TRIPPED" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_one_line_exit_2(self, tmp_path, capsys):
        path = self._tripped_checkpoint(tmp_path, capsys)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x08
        path.write_bytes(bytes(data))

        code = main(self.INFINITE + ["--resume", str(path)])

        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --resume:")
        assert str(path) in err
        assert len(err.strip().splitlines()) == 1, "expected one diagnostic line"
        assert "Traceback" not in err

    def test_truncated_checkpoint_is_one_line_exit_2(self, tmp_path, capsys):
        path = self._tripped_checkpoint(tmp_path, capsys)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 3])
        code = main(self.INFINITE + ["--resume", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --resume:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_checkpoint_is_one_line_exit_2(self, tmp_path, capsys):
        code = main(
            self.INFINITE + ["--resume", str(tmp_path / "nope.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no such checkpoint" in err

    def test_garbage_file_is_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\x00\x01 not a checkpoint")
        code = main(self.INFINITE + ["--resume", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --resume:")
        assert "Traceback" not in err

    def test_certain_resume_corrupt_exit_2(self, tmp_path, capsys):
        from repro.cli import EXIT_BUDGET_TRIP

        code = main(
            [
                "certain",
                "E(c0, c1)",
                "E(x, y) -> E(y, z)",
                "q(x) :- E(x, x)",
                "-e",
                "--strategy",
                "chase",
                "--max-atoms",
                "5",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_BUDGET_TRIP
        capsys.readouterr()
        path = tmp_path / "certain.checkpoint.json"
        assert path.exists()
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x04
        path.write_bytes(bytes(data))

        code = main(
            [
                "certain",
                "E(c0, c1)",
                "E(x, y) -> E(y, z)",
                "q(x) :- E(x, x)",
                "-e",
                "--resume",
                str(path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --resume:")
