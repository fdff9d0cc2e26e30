"""Tests for world serialization (simulation.io) and the CLI."""

import pytest

from repro.cli import main
from repro.core import infer_leases
from repro.simulation import build_world, small_world
from repro.simulation.io import load_datasets, write_world


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def data_dir(world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("world")
    write_world(world, directory)
    return directory


class TestWorldIO:
    def test_expected_files_exist(self, data_dir):
        for name in (
            "rib.txt",
            "as-rel.txt",
            "as2org.jsonl",
            "vrps.csv",
            "hijackers.txt",
            "brokers.csv",
            "exclusions.txt",
            "negative_isps.csv",
            "ground_truth.csv",
        ):
            assert (data_dir / name).exists(), name
        assert (data_dir / "whois" / "ripe.db").exists()
        assert (data_dir / "whois" / "arin.db").exists()
        assert len(list((data_dir / "drop").glob("asndrop-*.json"))) == 4

    def test_round_trip_counts(self, world, data_dir):
        bundle = load_datasets(data_dir)
        assert (
            bundle.routing_table.num_prefixes()
            == world.routing_table.num_prefixes()
        )
        assert bundle.whois.total_inetnums() == world.whois.total_inetnums()
        assert bundle.hijackers.asns() == world.hijackers.asns()
        assert len(bundle.broker_registry) == len(world.broker_registry)
        assert bundle.curation_exclusions == world.curation_exclusions
        assert bundle.negative_isp_org_ids == world.negative_isp_org_ids

    def test_inference_identical_after_round_trip(self, world, data_dir):
        bundle = load_datasets(data_dir)
        direct = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        reloaded = infer_leases(
            bundle.whois,
            bundle.routing_table,
            bundle.relationships,
            bundle.as2org,
        )
        assert reloaded.leased_prefixes() == direct.leased_prefixes()
        assert reloaded.total_classified() == direct.total_classified()

    def test_roas_round_trip(self, world, data_dir):
        bundle = load_datasets(data_dir)
        assert sorted(bundle.roas) == sorted(world.roas)


class TestCli:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_generate_and_infer(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--small", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["infer", "--data", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "RIPE" in output

    def test_evaluate(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["evaluate", "--data", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "Precision" in output

    def test_holders(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["holders", "--data", str(out)]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_abuse(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["abuse", "--data", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Serial-hijacker overlap" in output
        assert "ASN-DROP" in output

    def test_timeline(self, capsys):
        assert main(["timeline", "--small"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 3 timeline" in output
        assert "AS0" in output

    def test_run_all(self, capsys):
        assert main(["run-all", "--small"]) == 0
        output = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "ASN-DROP"):
            assert marker in output

    def test_legacy(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["legacy", "--data", str(out)]) == 0
        output = capsys.readouterr().out
        assert "legacy blocks" in output
        assert "leased" in output

    def test_rpki(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["rpki", "--data", str(out)]) == 0
        output = capsys.readouterr().out
        assert "leased" in output and "valid" in output


class TestArinDumpFidelity:
    def test_camelcase_attributes_in_dump(self, world, data_dir):
        text = (data_dir / "whois" / "arin.db").read_text()
        assert "NetHandle:" in text
        assert "NetRange:" in text
        assert "OrgID:" in text
        assert "nethandle:" not in text


class TestRpkiArchiveAndFeaturedIO:
    def test_rpki_archive_directory_round_trip(self, world, tmp_path):
        world.rpki_archive.to_directory(tmp_path / "rpki")
        from repro.rpki import RpkiArchive

        reloaded = RpkiArchive.from_directory(tmp_path / "rpki")
        assert reloaded.timestamps() == world.rpki_archive.timestamps()
        assert sorted(reloaded.latest()) == sorted(
            world.rpki_archive.latest()
        )

    def test_featured_round_trip(self, world, data_dir):
        from repro.simulation.io import load_datasets

        bundle = load_datasets(data_dir)
        featured = bundle.featured
        assert featured is not None
        assert featured.prefix == world.featured.prefix
        # Replaying the persisted update stream reproduces the same
        # origin history the generator recorded.
        history = featured.updates.origin_history(featured.prefix)
        for timestamp, origins in world.featured.bgp_observations:
            assert history.origins_at(timestamp) == frozenset(origins)

    def test_timeline_from_disk_matches_in_memory(self, world, data_dir):
        from repro.core import BgpOriginHistory, build_timeline
        from repro.simulation.io import load_datasets

        bundle = load_datasets(data_dir)
        featured = bundle.featured
        disk_timeline = build_timeline(
            featured.prefix,
            featured.updates.origin_history(featured.prefix),
            featured.rpki_archive,
        )
        bgp = BgpOriginHistory()
        for timestamp, origins in world.featured.bgp_observations:
            bgp.add_observation(timestamp, origins)
        memory_timeline = build_timeline(
            world.featured.prefix, bgp, world.featured.rpki_archive
        )
        assert disk_timeline.lease_count() == memory_timeline.lease_count()
        assert len(disk_timeline.as0_periods()) == len(
            memory_timeline.as0_periods()
        )

    def test_cli_timeline_from_data(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "--small", "--out", str(out)])
        capsys.readouterr()
        assert main(["timeline", "--data", str(out), "--small"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 3 timeline" in output


class TestScenarioIO:
    def test_round_trip(self):
        from repro.simulation import paper_world, small_world
        from repro.simulation.scenario_io import (
            scenario_from_json,
            scenario_to_json,
        )

        for scenario in (small_world(), paper_world(scale=200)):
            reloaded = scenario_from_json(scenario_to_json(scenario))
            assert reloaded == scenario

    def test_reloaded_scenario_builds_identical_world(self, tmp_path):
        from repro.simulation import small_world
        from repro.simulation.scenario_io import (
            load_scenario_file,
            scenario_to_json,
        )

        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(small_world()))
        left = build_world(small_world())
        right = build_world(load_scenario_file(path))
        assert sorted(map(str, left.routing_table.prefixes())) == sorted(
            map(str, right.routing_table.prefixes())
        )

    def test_unknown_keys_rejected(self):
        from repro.simulation import small_world
        from repro.simulation.scenario_io import (
            scenario_from_json,
            scenario_to_json,
        )
        import json

        payload = json.loads(scenario_to_json(small_world()))
        payload["typo_knob"] = 1
        with pytest.raises(ValueError, match="typo_knob"):
            scenario_from_json(json.dumps(payload))
        payload.pop("typo_knob")
        payload["regions"][0]["bad_region_key"] = 2
        with pytest.raises(ValueError, match="bad_region_key"):
            scenario_from_json(json.dumps(payload))

    def test_cli_config(self, tmp_path, capsys):
        from repro.simulation import small_world
        from repro.simulation.scenario_io import scenario_to_json

        config = tmp_path / "scenario.json"
        config.write_text(scenario_to_json(small_world()))
        out = tmp_path / "data"
        assert (
            main(["generate", "--config", str(config), "--out", str(out)])
            == 0
        )
        assert (out / "rib.txt").exists()


class TestLintAndReleaseCli:
    def test_lint_clean(self, data_dir, capsys):
        assert main(["lint", "--data", str(data_dir)]) == 0
        assert "no errors" in capsys.readouterr().out

    def test_release(self, data_dir, tmp_path, capsys):
        out = tmp_path / "release"
        assert main(
            ["release", "--data", str(data_dir), "--out", str(out)]
        ) == 0
        leases = (out / "inferred_leases.csv").read_text()
        labels = (out / "evaluation_labels.csv").read_text()
        assert leases.startswith(
            "prefix,rir,group,holder_org,facilitators,originators"
        )
        assert "leased" in labels
        # Every lease row names an originator.
        from repro.core.release import parse_inferred_leases

        rows = list(parse_inferred_leases(leases))
        assert rows
        assert all(row["originators"].startswith("AS") for row in rows)


class TestPipelineStats:
    def test_stats_after_run(self, world):
        from repro.core import LeaseInferencePipeline
        from repro.rir import RIR

        pipeline = LeaseInferencePipeline(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        result = pipeline.run()
        stats = pipeline.stats()
        assert set(stats) == set(RIR)
        ripe = stats[RIR.RIPE]
        assert ripe["legacy_dropped"] >= 1  # the legacy leases
        assert ripe["classifiable"] <= ripe["leaves"] <= ripe["nodes"]
        assert sum(s["classifiable"] for s in stats.values()) == (
            result.total_classified()
        )


class TestTemporalCli:
    def test_history_listing(self, capsys):
        assert main(["history", "--small", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "churned prefixes over 2 epochs" in out

    def test_history_single_prefix_json(self, capsys):
        import json

        assert main(["history", "--small", "--epochs", "2"]) == 0
        listing = capsys.readouterr().out.splitlines()
        prefix = listing[1].split()[0]
        assert main(
            ["history", "--small", "--epochs", "2",
             "--prefix", prefix, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefix"] == prefix
        assert payload["lease_count"] >= 1
        assert payload["periods"]

    def test_history_rejects_bad_prefix(self, capsys):
        assert main(
            ["history", "--small", "--prefix", "not-a-prefix"]
        ) == 2
        assert "bad --prefix" in capsys.readouterr().out

    def test_history_untracked_prefix(self, capsys):
        assert main(
            ["history", "--small", "--epochs", "2",
             "--prefix", "203.0.113.0/24"]
        ) == 1
        assert "no timeline tracked" in capsys.readouterr().out
