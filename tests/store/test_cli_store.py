"""CLI tests for ``repro generate --store columnar`` and ``repro store``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.report import run_store_report
from repro.store import ColumnarStore


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-store") / "st"
    code = main([
        "generate", "--seed", "5", "--systems", "2,13",
        "--store", "columnar", "--out", str(root),
        "--shard-rows", "150",
    ])
    assert code == 0
    return root


class TestGenerateStore:
    def test_writes_manifest_and_shards(self, store_dir):
        assert (store_dir / "manifest.json").exists()
        assert list((store_dir / "shards").glob("*.npy"))

    def test_matches_records_output(self, store_dir, tmp_path, capsys):
        csv_out = tmp_path / "list.csv"
        main([
            "generate", "--seed", "5", "--systems", "2,13",
            "--out", str(csv_out),
        ])
        export = tmp_path / "store.csv"
        code = main(["store", "export", str(store_dir), str(export)])
        assert code == 0
        assert export.read_bytes() == csv_out.read_bytes()

    def test_scale_grows_the_trace(self, tmp_path):
        small = tmp_path / "small"
        big = tmp_path / "big"
        main(["generate", "--seed", "5", "--systems", "2",
              "--store", "columnar", "--out", str(small)])
        main(["generate", "--seed", "5", "--systems", "2", "--scale", "4",
              "--store", "columnar", "--out", str(big)])
        small_rows = json.loads(
            (small / "manifest.json").read_text()
        )["row_count"]
        big_rows = json.loads((big / "manifest.json").read_text())["row_count"]
        assert big_rows > 2 * small_rows


class TestStoreCommands:
    def test_info(self, store_dir, capsys):
        assert main(["store", "info", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "columnar store" in out
        assert "record ids: implicit" in out

    def test_info_json(self, store_dir, capsys):
        assert main(["store", "info", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] > 0
        assert payload["record_ids"] == "implicit"

    def test_verify_ok(self, store_dir, capsys):
        assert main(["store", "verify", str(store_dir)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_catches_damage(self, store_dir, tmp_path, capsys):
        import shutil

        damaged = tmp_path / "damaged"
        shutil.copytree(store_dir, damaged)
        victim = next((damaged / "shards").glob("*-start_time.npy"))
        victim.write_bytes(victim.read_bytes()[:-8])
        assert main(["store", "verify", str(damaged)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_analyze_pushdown_counters(self, store_dir, capsys):
        assert main([
            "store", "analyze", str(store_dir), "--systems", "13", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_system"].keys() == {"13"}
        assert payload["scan"]["shards_pruned"] >= 1

    def test_analyze_plain_output(self, store_dir, capsys):
        assert main(["store", "analyze", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "pushdown:" in out
        assert "counts by cause:" in out

    def test_import_then_export_round_trip(self, store_dir, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        main(["store", "export", str(store_dir), str(csv_path)])
        imported = tmp_path / "imported"
        assert main([
            "store", "import", str(csv_path), str(imported),
        ]) == 0
        back = tmp_path / "back.csv"
        assert main(["store", "export", str(imported), str(back)]) == 0
        assert back.read_bytes() == csv_path.read_bytes()

    def test_export_filtered(self, store_dir, tmp_path):
        out = tmp_path / "sys2.csv"
        assert main([
            "store", "export", str(store_dir), str(out), "--systems", "2",
        ]) == 0
        text = out.read_text()
        assert ",13," not in text

    def test_error_boundary_on_missing_store(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_info_reports_clean_healing(self, store_dir, capsys):
        assert main(["store", "info", str(store_dir)]) == 0
        assert "healing: clean (no quarantined shards)" in (
            capsys.readouterr().out
        )

    def test_info_reports_degraded_healing(
        self, store_dir, tmp_path, capsys
    ):
        import shutil

        from repro.store import scrub_store

        damaged = tmp_path / "damaged"
        shutil.copytree(store_dir, damaged)
        next((damaged / "shards").glob("*-node_id.npy")).unlink()
        scrub_store(damaged)
        assert main(["store", "info", str(damaged)]) == 0
        out = capsys.readouterr().out
        assert "healing: DEGRADED" in out
        assert "affected systems:" in out
        assert "repro store repair" in out
        assert main(["store", "info", str(damaged), "--json"]) == 0
        healing = json.loads(capsys.readouterr().out)["healing"]
        assert healing["quarantined_shards"] == 1
        assert healing["quarantined_rows"] > 0
        assert healing["affected_systems"]


@pytest.fixture()
def damaged_dir(store_dir, tmp_path):
    import shutil

    damaged = tmp_path / "damaged"
    shutil.copytree(store_dir, damaged)
    victim = next((damaged / "shards").glob("*-node_id.npy"))
    victim.unlink()
    return damaged


class TestSelfHealCommands:
    def test_verify_json_clean(self, store_dir, capsys):
        assert main(["store", "verify", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] == []
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["mode"] == "deep"

    def test_verify_json_damaged_exits_1(self, damaged_dir, capsys):
        assert main(["store", "verify", str(damaged_dir), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["count"] == len(payload["problems"])
        assert any("missing" in p for p in payload["problems"])

    def test_scrub_quarantines_and_exits_1(self, damaged_dir, capsys):
        assert main(["store", "scrub", str(damaged_dir)]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out and "DAMAGED" in out
        assert (damaged_dir / "quarantine" / "ledger.jsonl").exists()

    def test_scrub_json_on_clean_store(self, store_dir, capsys):
        assert main(["store", "scrub", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["quarantined"] == []

    def test_repair_restores_verification(
        self, store_dir, damaged_dir, tmp_path, capsys
    ):
        reference = tmp_path / "reference.csv"
        assert main([
            "store", "export", str(store_dir), str(reference),
        ]) == 0
        assert main(["store", "scrub", str(damaged_dir)]) == 1
        capsys.readouterr()
        assert main([
            "store", "repair", str(damaged_dir), "--from", str(reference),
        ]) == 0
        assert "OK: store fully repaired" in capsys.readouterr().out
        assert main(["store", "verify", str(damaged_dir)]) == 0
        assert not (damaged_dir / "quarantine").exists()

    def test_repair_wrong_reference_exits_1(
        self, damaged_dir, tmp_path, capsys
    ):
        wrong = tmp_path / "wrong.csv"
        main(["generate", "--seed", "77", "--systems", "2,13",
              "--out", str(wrong)])
        capsys.readouterr()
        assert main([
            "store", "repair", str(damaged_dir), "--from", str(wrong),
        ]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_analyze_on_damage_skip(self, damaged_dir, capsys):
        assert main([
            "store", "analyze", str(damaged_dir), "--on-damage", "skip",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is not None
        assert payload["degraded"]["rows_skipped"] > 0

    def test_analyze_raises_on_damage_by_default(self, damaged_dir, capsys):
        assert main(["store", "analyze", str(damaged_dir)]) == 1
        assert "damaged" in capsys.readouterr().err

    def test_report_on_damage_skip_warns_on_stderr(
        self, damaged_dir, capsys
    ):
        code = main([
            "report", str(damaged_dir), "--artifact", "fig1",
            "--on-damage", "skip",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded read" in captured.err
        assert captured.out.strip()


class TestFederationCommands:
    def test_append_and_merge_round_trip(self, store_dir, tmp_path, capsys):
        # Filtered exports preserve record ids only from an
        # *explicit*-id store, so split the trace via an imported
        # reference store rather than the implicit generated one.
        full_csv = tmp_path / "full.csv"
        assert main(["store", "export", str(store_dir), str(full_csv)]) == 0
        reference = tmp_path / "reference"
        assert main(["store", "import", str(full_csv), str(reference),
                     "--shard-rows", "150"]) == 0
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert main(["store", "export", str(reference), str(a_csv),
                     "--systems", "2"]) == 0
        assert main(["store", "export", str(reference), str(b_csv),
                     "--systems", "13"]) == 0

        grown = tmp_path / "grown"
        assert main(["store", "import", str(a_csv), str(grown),
                     "--shard-rows", "150"]) == 0
        assert main(["store", "append", str(grown), str(b_csv)]) == 0
        assert main(["store", "verify", str(grown)]) == 0

        merged = tmp_path / "merged"
        assert main(["store", "merge", str(merged), str(a_csv), str(b_csv),
                     "--shard-rows", "150"]) == 0
        assert main(["store", "verify", str(merged)]) == 0
        back = tmp_path / "merged.csv"
        assert main(["store", "export", str(merged), str(back)]) == 0
        assert back.read_bytes() == full_csv.read_bytes()

    def test_merge_refuses_existing_store(self, store_dir, tmp_path, capsys):
        src = tmp_path / "src.csv"
        main(["store", "export", str(store_dir), str(src)])
        assert main([
            "store", "merge", str(store_dir), str(src),
        ]) == 1
        assert "store append" in capsys.readouterr().err


class TestStoreAsTraceInput:
    def test_report_reads_a_store_directory(self, store_dir, capsys):
        code = main(["report", str(store_dir), "--artifact", "fig1"])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_summary_matches_csv_input(self, store_dir, tmp_path, capsys):
        assert main(["validate", str(store_dir)]) == 0
        store_out = capsys.readouterr().out
        csv_path = tmp_path / "t.csv"
        main(["store", "export", str(store_dir), str(csv_path)])
        capsys.readouterr()
        assert main(["validate", str(csv_path)]) == 0
        assert capsys.readouterr().out == store_out


class TestAnalyzeFull:
    """``store analyze --full --json`` prints the store report's body
    and exits 0 exactly when every section rendered ok."""

    @pytest.fixture(scope="class")
    def paper_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-full") / "st"
        assert main([
            "generate", "--seed", "1", "--systems", "5,19,20",
            "--store", "columnar", "--out", str(root),
        ]) == 0
        return root

    @pytest.mark.parametrize(
        "fixture, ok", [("store_dir", False), ("paper_store", True)]
    )
    def test_json_is_the_store_report(self, fixture, ok, request, capsys):
        root = request.getfixturevalue(fixture)
        capsys.readouterr()
        code = main(["store", "analyze", str(root), "--full", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == run_store_report(ColumnarStore(root)).to_dict()
        assert payload["ok"] is ok
        assert code == (0 if ok else 1)
