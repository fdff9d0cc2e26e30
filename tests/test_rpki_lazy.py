"""RPKI archive snapshots decoded on first read, and typed VRP errors."""

import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Prefix
from repro.rpki import ROA, RoaSet, RpkiArchive, VrpError
from repro.simulation import build_world, small_world
from repro.simulation.io import load_datasets, write_world


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def data_dir(world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("lazy") / "data"
    write_world(world, directory)
    return directory


@pytest.fixture
def reads(monkeypatch):
    """Every path ``Path.read_text`` opens, in order."""
    opened = []
    original = Path.read_text

    def read_text(self, *args, **kwargs):
        opened.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    return opened


def snapshot_reads(opened):
    return [path for path in opened if path.name.startswith("vrps-")]


class TestLazyArchive:
    def test_equals_an_eager_parse_at_every_timestamp(self, world, data_dir):
        directory = data_dir / "featured" / "rpki"
        lazy = RpkiArchive.from_directory(directory)
        eager = {
            int(path.stem[len("vrps-"):]): RoaSet.from_csv(path.read_text())
            for path in sorted(directory.glob("vrps-*.csv"))
        }
        assert lazy.timestamps() == sorted(eager)
        assert lazy.timestamps() == world.featured.rpki_archive.timestamps()
        for timestamp, roas in eager.items():
            assert list(lazy.snapshot_at(timestamp)) == list(roas)
        assert [(ts, list(roas)) for ts, roas in lazy] == [
            (ts, list(roas)) for ts, roas in world.featured.rpki_archive
        ]
        prefix = world.featured.prefix
        assert lazy.change_points(prefix) == (
            world.featured.rpki_archive.change_points(prefix)
        )

    def test_opening_reads_no_snapshot(self, data_dir, reads):
        archive = RpkiArchive.from_directory(data_dir / "featured" / "rpki")
        assert len(archive) > 10
        assert archive.timestamps()
        assert snapshot_reads(reads) == []

    def test_each_file_is_read_at_most_once(self, world, data_dir, reads):
        archive = RpkiArchive.from_directory(data_dir / "featured" / "rpki")
        first, last = archive.timestamps()[0], archive.timestamps()[-1]
        archive.snapshot_at(first)
        archive.snapshot_at(first + 1)
        archive.latest()
        assert snapshot_reads(reads) == [
            data_dir / "featured" / "rpki" / f"vrps-{first:012d}.csv",
            data_dir / "featured" / "rpki" / f"vrps-{last:012d}.csv",
        ]
        list(archive)
        list(archive)
        archive.authorized_origin_history(world.featured.prefix)
        archive.change_points(world.featured.prefix)
        opened = snapshot_reads(reads)
        assert len(opened) == len(set(opened)) == len(archive)

    def test_add_snapshot_replaces_an_unread_file(self, data_dir, reads):
        archive = RpkiArchive.from_directory(data_dir / "featured" / "rpki")
        timestamp = archive.timestamps()[0]
        replacement = RoaSet([ROA(Prefix.parse("192.0.2.0/24"), 64500)])
        archive.add_snapshot(timestamp, replacement)
        assert archive.snapshot_at(timestamp) is replacement
        assert len(archive) == len(archive.timestamps())
        assert snapshot_reads(reads) == []

    def test_round_trips_through_a_directory(self, data_dir, tmp_path):
        archive = RpkiArchive.from_directory(data_dir / "featured" / "rpki")
        archive.to_directory(tmp_path)
        again = RpkiArchive.from_directory(tmp_path)
        assert [(ts, list(r)) for ts, r in again] == [
            (ts, list(r)) for ts, r in archive
        ]

    def test_concurrent_first_reads_get_one_object(self, data_dir, monkeypatch):
        archive = RpkiArchive.from_directory(data_dir / "featured" / "rpki")
        timestamp = archive.timestamps()[3]
        both_decoding = threading.Barrier(2)
        decode = RoaSet.from_csv

        def slow_decode(text):
            both_decoding.wait(5)  # both threads are past the cache check
            return decode(text)

        monkeypatch.setattr(RoaSet, "from_csv", slow_decode)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(archive.snapshot_at(timestamp))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert len(results) == 2
        assert results[0] is results[1] is archive.snapshot_at(timestamp)

    def test_serve_path_decodes_no_snapshot(self, data_dir, reads):
        from repro.core import AnalysisContext, LeaseInferencePipeline
        from repro.core.leaseindex import LeaseIndex

        bundle = load_datasets(data_dir)
        tables = (
            bundle.whois, bundle.routing_table, bundle.relationships,
            bundle.as2org,
        )
        context = AnalysisContext.build(*tables)
        result = LeaseInferencePipeline(*tables).run(context=context)
        LeaseIndex.build(context, result)
        assert len(bundle.rpki_archive) > 0
        # Neither the top-level VRP file nor anything under featured/
        # is read on the serve path.
        featured = data_dir / "featured"
        assert data_dir / "vrps.csv" not in reads
        assert [path for path in reads if featured in path.parents] == []
        # Reading the featured bundle opens its archive, no snapshot.
        assert len(bundle.featured.rpki_archive) > 10
        assert snapshot_reads(reads) == []


class TestLazyBundle:
    def test_roas_and_featured_decode_once(self, world, data_dir, reads):
        bundle = load_datasets(data_dir)
        assert not [
            path for path in reads
            if path.name == "vrps.csv" or "featured" in path.parts
        ]
        assert bundle.roas is bundle.roas
        assert sorted(bundle.roas) == sorted(world.roas)
        assert bundle.featured is bundle.featured
        assert bundle.featured.prefix == world.featured.prefix
        assert reads.count(data_dir / "vrps.csv") == 1
        assert reads.count(data_dir / "featured" / "updates.txt") == 1

    def test_first_read_decodes_with_the_collector_paused(
        self, data_dir, monkeypatch
    ):
        import gc

        seen = []
        decode = RoaSet.from_csv

        def spy(text):
            seen.append(gc.isenabled())
            return decode(text)

        monkeypatch.setattr(RoaSet, "from_csv", spy)
        bundle = load_datasets(data_dir)
        assert seen == []
        assert gc.isenabled()
        bundle.roas
        assert seen == [False]
        assert gc.isenabled()

    def test_a_bundle_without_featured_data_has_none(self, data_dir, tmp_path):
        import shutil

        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        shutil.rmtree(copy / "featured")
        assert load_datasets(copy).featured is None


class TestVrpErrors:
    def test_names_the_line(self):
        text = "ASN,IP Prefix,Max Length\nAS1,10.0.0.0/8,8\n\nAS2,10.0.0.1/8,8\n"
        with pytest.raises(VrpError, match=r"^line 4: host bits set"):
            RoaSet.from_csv(text)

    @pytest.mark.parametrize(
        "row",
        ["AS1,10.0.0.0/8", "ASx,10.0.0.0/8,8", "AS1,10.0.0.0/8,7",
         "AS-1,10.0.0.0/8,8", "AS1,10.0.0/8,8", "AS1,10.0.0.0/8,"],
    )
    def test_every_malformed_row_is_a_vrp_error(self, row):
        with pytest.raises(VrpError, match=r"^line 1: "):
            RoaSet.from_csv(row)

    def test_archive_names_the_file_on_first_read(self, data_dir, tmp_path):
        for path in (data_dir / "featured" / "rpki").glob("vrps-*.csv"):
            (tmp_path / path.name).write_text(path.read_text())
        archive = RpkiArchive.from_directory(tmp_path)
        bad_timestamp = archive.timestamps()[2]
        bad = tmp_path / f"vrps-{bad_timestamp:012d}.csv"
        bad.write_text(bad.read_text() + "AS1,not-a-prefix,8\n")
        archive = RpkiArchive.from_directory(tmp_path)  # opens fine
        assert archive.snapshot_at(archive.timestamps()[1]) is not None
        with pytest.raises(VrpError) as raised:
            archive.snapshot_at(bad_timestamp)
        assert str(raised.value).startswith(f"{bad}: line ")
        with pytest.raises(VrpError):
            list(archive)

    def test_archive_wraps_bytes_that_are_not_utf8(self, tmp_path):
        (tmp_path / "vrps-000000000001.csv").write_bytes(b"AS1,\xff\xfe\n")
        archive = RpkiArchive.from_directory(tmp_path)
        with pytest.raises(VrpError, match="vrps-000000000001.csv"):
            archive.latest()

    @pytest.mark.parametrize(
        "name", ["vrps-abc.csv", "vrps-.csv", "vrps-12x.csv", "vrps--5.csv"]
    )
    def test_a_bad_file_name_fails_at_open(self, tmp_path, name):
        (tmp_path / name).write_text("ASN,IP Prefix,Max Length\n")
        with pytest.raises(VrpError, match=re.escape(name)):
            RpkiArchive.from_directory(tmp_path)


VALID = RoaSet(
    [
        ROA(Prefix.parse("213.210.0.0/16"), 64500, 24),
        ROA(Prefix.parse("213.210.33.0/24"), 0),
        ROA(Prefix.parse("10.0.0.0/8"), 4200000000, 8),
        ROA(Prefix.parse("192.0.2.0/24"), 15169, 32),
    ]
).to_csv()


@st.composite
def corrupted(draw, text):
    """*text* with a few characters overwritten, then cut short."""
    chars = list(text)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(chars) - 1))
        chars[position] = draw(st.characters())
    return "".join(chars[: draw(st.integers(min_value=0, max_value=len(chars)))])


class TestMalformedVrps:
    """Corrupted VRP files fail with the typed error, never a raw one."""

    @settings(max_examples=400, deadline=None)
    @given(corrupted(VALID))
    def test_decodes_or_names_a_line(self, text):
        try:
            RoaSet.from_csv(text)
        except VrpError as exc:
            match = re.match(r"line (\d+): ", str(exc))
            assert match, str(exc)
            assert 1 <= int(match.group(1)) <= len(text.splitlines())
