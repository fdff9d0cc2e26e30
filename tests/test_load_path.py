"""The load path from dumps on disk: value layout, imports, located errors."""

import copy
import dataclasses
import importlib
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.abuse.dropdb import AsnDropError
from repro.asdata.as2org import As2OrgError
from repro.asdata.hijackers import HijackerListError
from repro.asdata.relationships import RelationshipError
from repro.bgp.aspath import ASPath
from repro.bgp.history import UpdateStreamError
from repro.bgp.rib import RibEntry
from repro.core.allocation_tree import TreeLeaf
from repro.core.classify import Category
from repro.core.context import AnalysisContext
from repro.core.leaseindex import LeaseIndex
from repro.core.pipeline import LeaseInferencePipeline
from repro.core.results import LeafInference
from repro.net import AddressRange, Prefix
from repro.rir import RIR
from repro.rpki.roa import ROA, VrpError
from repro.simulation import build_world, small_world
from repro.simulation.io import load_datasets, write_world
from repro.whois.objects import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
)
from repro.whois.reader import WhoisError

PREFIX = Prefix.parse("62.0.0.0/16")
INETNUM = InetnumRecord(
    RIR.RIPE,
    AddressRange.from_prefix(PREFIX),
    "ALLOCATED PA",
    "ORG-A",
    ("A-MNT", "B-MNT"),
    "ALPHA-NET",
    "62.0.0.0 - 62.0.255.255",
    country="DE",
)

VALUES = [
    PREFIX,
    AddressRange.from_prefix(PREFIX),
    ASPath.of(3356, 64500),
    RibEntry(PREFIX, ASPath.of(3356, 64500), 3356, "198.18.0.1", 7),
    ROA(PREFIX, 64500),
    INETNUM,
    AutNumRecord(RIR.ARIN, 64500, "O-1", ("O-1",), "ALPHA", "AS64500"),
    OrgRecord(RIR.LACNIC, "BR-A", "Alpha SA", ("BR-A",), "BR"),
    MntnerRecord(RIR.RIPE, "A-MNT", "AA1-RIPE", "ORG-A"),
    LeafInference(
        RIR.RIPE, PREFIX, Category.LEASED_GROUP4, INETNUM,
        Prefix.parse("62.0.0.0/8"), INETNUM,
        frozenset({64500}), frozenset({3356}), frozenset({3356, 1299}),
    ),
    TreeLeaf(PREFIX, INETNUM, Prefix.parse("62.0.0.0/8"), INETNUM),
]
IDS = [type(value).__name__ for value in VALUES]


class TestSlottedValues:
    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == tuple(
            field.name for field in dataclasses.fields(value)
        )

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, value, protocol):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == repr(value)

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_copies(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_still_frozen(self, value):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy.deepcopy(value), name, None)

    def test_order_and_replace_unchanged(self):
        other = Prefix.parse("62.0.0.0/17")
        assert sorted([other, PREFIX]) == [PREFIX, other]
        assert dataclasses.replace(INETNUM, status="X").status == "X"

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            AddressRange(10, 9)
        with pytest.raises(ValueError):
            AutNumRecord(RIR.RIPE, -1, None)


LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.simulation",
    "repro.bgp",
    "repro.temporal",
]


class TestLazyPackages:
    def test_serve_path_skips_what_it_does_not_run(self):
        unwanted = [
            "repro.simulation.world",
            "repro.bgp.simulator",
            "repro.core.legacy",
            "repro.core.longitudinal",
            "multiprocessing",
            "multiprocessing.shared_memory",
            "concurrent.futures.process",
        ]
        script = (
            "import sys, repro.serve, repro.simulation.io\n"
            f"print([name for name in {unwanted!r} if name in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert output.strip() == "[]"

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
        star = {}
        exec(f"from {name} import *", star)
        assert set(package.__all__) <= set(star)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    write_world(build_world(small_world()), directory)
    return directory


class TestLocatedLoadErrors:
    """``load_datasets`` names the file and the line of a bad dump."""

    @staticmethod
    def _broken(data_dir, tmp_path, name, bad_line):
        """A copy of the data with *bad_line* appended to *name*, and the
        message prefix its error must start with."""
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        path = broken / name
        text = path.read_text()
        path.write_text(f"{text}\n{bad_line}\n")
        line = text.count("\n") + 2
        return broken, "^" + re.escape(f"{path}: line {line}: ")

    def _fails(self, data_dir, tmp_path, name, bad_line, error):
        broken, located = self._broken(data_dir, tmp_path, name, bad_line)
        with pytest.raises(error, match=located):
            load_datasets(broken)

    def _fails_on_first_read(
        self, data_dir, tmp_path, name, bad_line, error, field
    ):
        """The bundle loads; its first read of *field* raises."""
        broken, located = self._broken(data_dir, tmp_path, name, bad_line)
        bundle = load_datasets(broken)
        with pytest.raises(error, match=located):
            getattr(bundle, field)

    def test_whois(self, data_dir, tmp_path):
        bad = "inetnum: 62.9.0.0 - 62.8.0.0"
        self._fails(data_dir, tmp_path, "whois/ripe.db", bad, WhoisError)

    def test_relationships(self, data_dir, tmp_path):
        self._fails(
            data_dir, tmp_path, "as-rel.txt", "7|7|0", RelationshipError
        )

    def test_as2org(self, data_dir, tmp_path):
        self._fails(
            data_dir, tmp_path, "as2org.jsonl", '{"type": "ASN"}', As2OrgError
        )

    def test_as2org_non_object(self, data_dir, tmp_path):
        self._fails(data_dir, tmp_path, "as2org.jsonl", "[1]", As2OrgError)

    def test_hijackers(self, data_dir, tmp_path):
        self._fails(
            data_dir, tmp_path, "hijackers.txt", "AS64500x", HijackerListError
        )

    def test_asn_drop(self, data_dir, tmp_path):
        month = min(path.name for path in (data_dir / "drop").iterdir())
        self._fails(
            data_dir, tmp_path, f"drop/{month}", '{"asn": "x"}', AsnDropError
        )

    def test_vrps(self, data_dir, tmp_path):
        self._fails_on_first_read(
            data_dir, tmp_path, "vrps.csv", "AS1,not-a-prefix,8", VrpError,
            "roas",
        )

    @pytest.mark.parametrize("bad", [
        "BGP4MP|x|A|198.18.0.1|64500|62.0.0.0/24|64500 1|IGP",
        "BGP4MP|1|A|198.18.0.1|64500|62.0.0.1/24|64500 1|IGP",
        "BGP4MP|1|A|198.18.0.1|64500|62.0.0.0/24",
        "BGP4MP|1|X|198.18.0.1|64500|62.0.0.0/24",
        "garbage",
    ])
    def test_featured_updates(self, data_dir, tmp_path, bad):
        self._fails_on_first_read(
            data_dir, tmp_path, "featured/updates.txt", bad,
            UpdateStreamError, "featured",
        )


class TestLazyWhoisIndexes:
    """The serve path never builds the WHOIS secondary indexes."""

    def test_serve_path_builds_none_and_first_query_answers(self, data_dir):
        eager = load_datasets(data_dir).whois
        for database in eager:
            database._index()
        bundle = load_datasets(data_dir)
        context = AnalysisContext.build(
            bundle.whois, bundle.routing_table, bundle.relationships,
            bundle.as2org,
        )
        pipeline = LeaseInferencePipeline(
            bundle.whois, bundle.routing_table, bundle.relationships,
            bundle.as2org,
        )
        LeaseIndex.build(context, pipeline.run(context=context))
        assert [db._indexes for db in bundle.whois] == [None] * 5
        for database, indexed in zip(bundle.whois, eager):
            assert database.orgs and indexed._indexes is not None
            for org_id, org in indexed.orgs.items():
                assert database.asns_of_org(org_id) == indexed.asns_of_org(
                    org_id
                )
                assert database.orgs_named(org.name) == indexed.orgs_named(
                    org.name
                )
            assert database._indexes is not None
