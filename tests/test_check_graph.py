"""Unit coverage for the whole-program fact extractor and graph.

``extract_facts`` distills one module into picklable ``ModuleFacts``;
``ProjectGraph`` stitches those into import edges, a conservative call
graph, and liveness queries.  These tests pin the individual layers so
rule failures point at the rule, not the graph.
"""

import ast

import pytest

from repro.check.context import ModuleSource, reference_corpus
from repro.check.graph import (
    BlockingSite,
    CallFact,
    ClassFact,
    ExportFact,
    FrozenArgFact,
    FrozenWrite,
    FunctionFact,
    ImportFact,
    MODULE_QUALNAME,
    ModuleFacts,
    ProjectGraph,
    blocking_call_label,
    extract_facts,
    resolve_import_source,
)
from repro.check.rules.architecture import LAYER_MAP, ROOT_LAYER, layer_of


def _module(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return ModuleSource(path, tmp_path)


def _facts(tmp_path, name, source):
    return extract_facts(_module(tmp_path, name, source))


def _graph(tmp_path, sources, reference_text=""):
    facts = [
        _facts(tmp_path, name, source) for name, source in sources.items()
    ]
    return ProjectGraph(facts, reference_text=reference_text)


# -- import resolution ----------------------------------------------------


def test_resolve_import_source_absolute():
    assert (
        resolve_import_source("repro.core.pipeline", False, 0, "repro.net")
        == "repro.net"
    )


def test_resolve_import_source_relative_sibling():
    assert (
        resolve_import_source("repro.core.pipeline", False, 1, "context")
        == "repro.core.context"
    )


def test_resolve_import_source_relative_parent():
    assert (
        resolve_import_source("repro.core.pipeline", False, 2, "net")
        == "repro.net"
    )


def test_resolve_import_source_package_init():
    # ``from . import x`` inside repro/core/__init__.py targets
    # repro.core itself, not repro.
    assert resolve_import_source("repro.core", True, 1, None) == "repro.core"
    assert (
        resolve_import_source("repro.core", True, 1, "context")
        == "repro.core.context"
    )


# -- fact extraction ------------------------------------------------------


def test_import_facts_record_position_and_kind(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "from typing import TYPE_CHECKING\n"
        "import os\n"
        "from repro.net import parse_prefix\n"
        "if TYPE_CHECKING:\n"
        "    from repro.cli import main\n"
        "def late():\n"
        "    import json\n",
    )
    assert isinstance(facts, ModuleFacts)
    by_source = {imp.source: imp for imp in facts.imports}
    assert isinstance(by_source["os"], ImportFact)
    assert by_source["repro.net"].is_from
    assert by_source["repro.net"].names == ("parse_prefix",)
    assert by_source["repro.cli"].type_checking
    assert by_source["repro.cli"].top_level
    assert not by_source["json"].top_level


def test_function_facts_cover_async_params_and_calls(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "async def fetch(url, *, retries=3):\n"
        "    return parse(url)\n"
        "class Worker:\n"
        "    def run(self, job):\n"
        "        self.step(job)\n",
    )
    functions = {fn.qualname: fn for fn in facts.functions}
    assert MODULE_QUALNAME in functions
    fetch = functions["fetch"]
    assert isinstance(fetch, FunctionFact)
    assert fetch.is_async
    assert fetch.params == ("url", "retries")
    assert any(
        isinstance(call, CallFact) and call.name == "parse"
        for call in fetch.calls
    )
    run = functions["Worker.run"]
    assert run.owner_class == "Worker"
    assert any(
        call.base == "self" and call.name == "step" for call in run.calls
    )


def test_blocking_sites_and_labels(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "import time\n"
        "def stall(path):\n"
        "    time.sleep(1)\n"
        "    return open(path)\n",
    )
    stall = next(fn for fn in facts.functions if fn.qualname == "stall")
    labels = {site.label for site in stall.blocking}
    assert labels == {"time.sleep()", "open()"}
    assert all(isinstance(site, BlockingSite) for site in stall.blocking)


def test_blocking_call_label_reads_ast_nodes():
    call = ast.parse("config.read_text()").body[0].value
    assert blocking_call_label(call) == ".read_text()"
    call = ast.parse("print(1)").body[0].value
    assert blocking_call_label(call) is None


def test_class_and_export_facts(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "from repro.check.model import CheckRule, register_check_rule\n"
        "__all__ = ['Wired', 'CheckRule']\n"
        "@register_check_rule\n"
        "class Wired(CheckRule):\n"
        "    __slots__ = ()\n",
    )
    cls = next(c for c in facts.classes if c.name == "Wired")
    assert isinstance(cls, ClassFact)
    assert cls.registered
    assert "CheckRule" in cls.bases
    exports = {exp.name: exp for exp in facts.exports}
    assert isinstance(exports["Wired"], ExportFact)
    assert exports["Wired"].local
    assert not exports["CheckRule"].local  # re-export, defined elsewhere


def test_frozen_arg_facts_track_snapshot_flow(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "from repro.core.context import AnalysisContext\n"
        "def run(records):\n"
        "    ctx = AnalysisContext(records)\n"
        "    consume(ctx)\n",
    )
    run = next(fn for fn in facts.functions if fn.qualname == "run")
    (passed,) = run.frozen_args
    assert isinstance(passed, FrozenArgFact)
    assert passed.cls == "AnalysisContext"
    assert passed.var == "ctx"
    assert passed.name == "consume"
    assert passed.position == 0


def test_frozen_write_facts_record_each_shape(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "from repro.core.context import AnalysisContext\n"
        "def poke(context: AnalysisContext, other):\n"
        "    context.flag = True\n"
        "    context.table['key'] = 1\n"
        "    del context.cache\n"
        "    other.flag = True\n",
    )
    poke = next(fn for fn in facts.functions if fn.qualname == "poke")
    assert all(isinstance(w, FrozenWrite) for w in poke.frozen_writes)
    assert sorted(
        (w.cls, w.var, w.deleted, w.lineno, w.col)
        for w in poke.frozen_writes
    ) == [
        ("AnalysisContext", "context", False, 3, 4),
        ("AnalysisContext", "context", False, 4, 4),
        ("AnalysisContext", "context", True, 5, 8),
    ]


def test_facts_round_trip_through_dicts(tmp_path):
    facts = _facts(
        tmp_path,
        "mod.py",
        "import time\n"
        "from repro.core.context import AnalysisContext\n"
        "__all__ = ['stall']\n"
        "def stall(ctx, frozen: AnalysisContext):\n"
        "    ctx.cache = {}\n"
        "    del frozen.cache\n"
        "    time.sleep(1)\n",
    )
    stall = next(fn for fn in facts.functions if fn.qualname == "stall")
    assert stall.flow.mutated_params == ("ctx", "frozen")
    assert stall.frozen_writes
    assert ModuleFacts.from_dict(facts.to_dict()) == facts


# -- project graph --------------------------------------------------------


def test_import_targets_prefer_submodules(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg.py": "# repro-check: module=repro.whois\n"
            "from repro.whois import arin\n",
            "arin.py": "# repro-check: module=repro.whois.arin\n",
        },
    )
    (fact,) = graph.by_dotted["repro.whois"].imports
    assert graph.import_targets(fact) == ["repro.whois.arin"]
    assert graph.import_cycles() == []  # submodule edge, not a package cycle


def test_import_cycles_found_by_tarjan(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "a.py": "# repro-check: module=repro.core.a\n"
            "from repro.core.b import x\n",
            "b.py": "# repro-check: module=repro.core.b\n"
            "from repro.core.a import y\n",
        },
    )
    (cycle,) = graph.import_cycles()
    assert set(cycle) == {"repro.core.a", "repro.core.b"}


def test_blocking_reachable_walks_sync_helpers_only(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": "import time\n"
            "def helper():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    return helper()\n"
            "async def stops_at_async():\n"
            "    return outer()\n",
        },
    )
    resolver = graph.flow_resolver()
    hits = resolver.blocking_paths("mod.py", "outer")
    assert len(hits) == 1
    entry, (_rel, qual), site, path = hits[0]
    assert (entry.name, entry.lineno) == ("helper", 5)
    assert qual == "helper"
    assert site.label == "time.sleep()"
    assert path == ("outer", "helper")
    assert resolver.blocking_paths("mod.py", "stops_at_async") == []
    # The async walk still reaches through the awaited coroutine.
    roots = {qual for _rel, qual, _ in resolver.async_roots("mod.py", "helper")}
    assert roots == {"outer", "stops_at_async"}


def test_mutating_params_reach_fixpoint(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": "def direct(ctx):\n"
            "    ctx.cache = {}\n"
            "def forward(thing):\n"
            "    direct(thing)\n"
            "def reader(ctx):\n"
            "    return ctx.cache\n"
            "def ping(ctx, hops):\n"
            "    ctx.seen = True\n"
            "    if hops:\n"
            "        pong(ctx, hops)\n"
            "def pong(ctx, hops):\n"
            "    ping(ctx, hops - 1)\n",
        },
    )
    resolver = graph.flow_resolver()

    def mutated(qualname, param):
        return resolver.param_effect("mod.py", qualname, param).mutated

    assert mutated("direct", "ctx")
    assert mutated("forward", "thing")
    assert not mutated("reader", "ctx")
    # A cycle: pong mutates only through ping, and is first reached
    # while ping is still being walked.
    assert mutated("ping", "ctx")
    assert mutated("pong", "ctx")
    assert not mutated("ping", "hops")


def test_name_used_outside_checks_modules_then_corpus(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "library.py": "def shared():\n    return 1\n",
            "client.py": "from library import shared\n",
        },
        reference_text="docs mention doc_only_name here",
    )
    assert graph.name_used_outside("library.py", "shared")
    assert graph.name_used_outside("library.py", "doc_only_name")
    assert not graph.name_used_outside("library.py", "never_anywhere")
    assert not graph.name_used_outside("library.py", "doc_only")  # bounded


def test_reference_corpus_reads_tests_and_docs(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("from pkg import thing\n")
    (tmp_path / "docs" / "guide.md").write_text("call thing() to begin\n")
    corpus = reference_corpus(tmp_path)
    assert "from pkg import thing" in corpus
    assert "call thing()" in corpus
    assert reference_corpus(tmp_path / "docs") == ""


# -- layer map ------------------------------------------------------------


def test_layer_of_maps_modules_to_layers():
    assert layer_of("repro") == ROOT_LAYER
    assert layer_of("repro.core.pipeline") == "core"
    assert layer_of("repro.serve") == "serve"
    assert layer_of("numpy.linalg") is None


def test_layer_map_is_closed_over_declared_layers():
    declared = set(LAYER_MAP)
    for layer, allowed in LAYER_MAP.items():
        missing = allowed - declared
        assert not missing, f"{layer} allows undeclared layers {missing}"
        assert layer not in allowed, f"{layer} lists itself; same-layer is implicit"


def test_server_carries_no_benchmark_code():
    assert "bench" not in LAYER_MAP["serve"]
    assert "bench" not in LAYER_MAP["temporal"]
    assert "simulation" not in LAYER_MAP["temporal"]


@pytest.mark.parametrize("forbidden", ["serve", "cli"])
def test_core_never_imports_consumers(forbidden):
    assert forbidden not in LAYER_MAP["core"]
    assert forbidden not in LAYER_MAP["diagnostics"]
