"""The shipped contract rules.

Each rule encodes one invariant the reproduction's results depend on; the
rationale strings double as the rule-catalog documentation rendered by
``repro lint --list-rules`` (and mirrored in ``docs/architecture.md``).

The rules are AST-first: everything a rule needs is read from the parsed
source, so they run on any file — including test fixtures that are not
importable.  The spec-hash rule additionally *imports* the module it checks
(when it can) and diffs the runtime dataclass fields against the class body
AST, catching drift that pure syntax cannot see (inherited fields, dynamic
field injection, stale exclusion lists).
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path
from typing import Iterator

from repro.analysis.lint.core import FileContext, Finding, Rule, register

# ----------------------------------------------------------------------
# 1. RNG discipline
# ----------------------------------------------------------------------

#: Explicitly seeded constructors on ``numpy.random`` that respect the
#: spawned-stream discipline (randomness still flows through the object
#: they build, which callers must thread through as a parameter).
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


@register
class GlobalRNGRule(Rule):
    """No global RNG state: randomness flows through ``Generator`` params."""

    id = "global-rng"
    summary = "no global numpy/stdlib RNG calls; pass Generator/SeedSequence"
    rationale = (
        "Parallel trials are bit-identical to serial ones only because every "
        "trial draws from its own seed-spawned stream. A call into the global "
        "numpy RNG (np.random.normal, np.random.seed, ...) or the stdlib "
        "`random` module reads hidden process-wide state, so results depend "
        "on import order, worker count and scheduling."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_chain(node.func)
            if chain is None:
                continue
            if len(chain) == 3 and chain[:2] == ("numpy", "random"):
                name = chain[2]
                if name in _ALLOWED_NP_RANDOM:
                    continue
                if name == "default_rng":
                    if _seeded_default_rng(node):
                        continue
                    yield ctx.finding(
                        self.id,
                        node,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy — results are irreproducible; pass explicit "
                        "seed material (int/SeedSequence)",
                    )
                    continue
                yield ctx.finding(
                    self.id,
                    node,
                    f"global numpy RNG call np.random.{name}(...) bypasses the "
                    "seed-stream discipline; draw from a Generator passed in "
                    "as a parameter",
                )
            elif chain[0] == "random" and len(chain) >= 2 and _imports_stdlib_random(ctx):
                yield ctx.finding(
                    self.id,
                    node,
                    f"stdlib random.{chain[-1]}(...) uses hidden global state; "
                    "use a numpy Generator threaded through parameters",
                )


def _seeded_default_rng(node: ast.Call) -> bool:
    """Whether a ``default_rng`` call passes non-``None`` seed material."""
    if node.keywords:
        for keyword in node.keywords:
            if keyword.arg in (None, "seed"):
                return not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                )
    if not node.args:
        return False
    first = node.args[0]
    return not (isinstance(first, ast.Constant) and first.value is None)


def _imports_stdlib_random(ctx: FileContext) -> bool:
    """Whether the file binds the stdlib ``random`` module (not numpy's)."""
    return ctx.aliases.get("random") == "random" or any(
        origin == "random" or origin.startswith("random.")
        for origin in ctx.aliases.values()
    )


# ----------------------------------------------------------------------
# 2. Wall-clock hygiene
# ----------------------------------------------------------------------

#: Canonical chains that read the wall clock. Monotonic/CPU clocks
#: (perf_counter, monotonic, process_time) are deliberately exempt: they
#: measure durations and never enter hashed or stored result content.
_WALL_CLOCK_CHAINS = {
    ("time", "time"): "time.time()",
    ("time", "time_ns"): "time.time_ns()",
    ("datetime", "datetime", "now"): "datetime.now()",
    ("datetime", "datetime", "utcnow"): "datetime.utcnow()",
    ("datetime", "datetime", "today"): "datetime.today()",
    ("datetime", "date", "today"): "date.today()",
}


@register
class WallClockRule(Rule):
    """Wall-clock reads only in the allowlisted telemetry/store modules."""

    id = "wall-clock"
    summary = "time.time()/datetime.now() only in telemetry/store modules"
    rationale = (
        "Scenario results are pure functions of their spec; a wall-clock "
        "read in a result-producing path makes reruns diverge and poisons "
        "content-hash-addressed caches. Timestamps belong in telemetry "
        "stamps and store metadata, which are excluded from record "
        "identity — those modules are allowlisted."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        config = ctx.config
        if config.module_allowed(ctx.module_name, config.wall_clock_allowlist):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_chain(node.func)
            if chain is None:
                continue
            label = _WALL_CLOCK_CHAINS.get(chain)
            if label is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{label} outside the allowlisted telemetry/store modules "
                    f"({', '.join(config.wall_clock_allowlist)}); results must "
                    "not depend on when they were computed",
                )


# ----------------------------------------------------------------------
# 3. Ordering determinism
# ----------------------------------------------------------------------

#: Filesystem enumeration methods whose order is OS/inode dependent.
_FS_METHODS = frozenset({"glob", "rglob", "iterdir"})
_FS_OS_CHAINS = {("os", "listdir"), ("os", "scandir")}


@register
class UnsortedIterationRule(Rule):
    """Filesystem listings and set iteration must be explicitly sorted."""

    id = "unsorted-iteration"
    summary = "wrap glob/iterdir/listdir and set iteration in sorted(...)"
    rationale = (
        "Path.glob/iterdir and os.listdir return entries in filesystem "
        "order, and set iteration order depends on insertion history and "
        "PYTHONHASHSEED. Feeding either into results, serialization or "
        "work scheduling makes output ordering machine-dependent (the "
        "campaign store sorts its segment-file glob for this reason). "
        "Wrap the producer in "
        "sorted(...); for genuinely order-insensitive consumption, "
        "suppress with a justification comment."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = ctx.resolve_chain(node.func)
                is_fs = False
                label = ""
                if isinstance(node.func, ast.Attribute) and node.func.attr in _FS_METHODS:
                    is_fs = True
                    label = f".{node.func.attr}(...)"
                elif chain in _FS_OS_CHAINS:
                    is_fs = True
                    label = ".".join(chain) + "(...)"
                if is_fs and not self._sorted_ancestor(ctx, node):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"unsorted {label}: filesystem enumeration order is "
                        "OS-dependent; wrap in sorted(...) so downstream "
                        "results are machine-independent",
                    )
            iter_node = None
            if isinstance(node, ast.For):
                iter_node = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expression(generator.iter) and not self._sorted_ancestor(
                        ctx, generator.iter
                    ):
                        yield ctx.finding(
                            self.id,
                            generator.iter,
                            "iteration over a set: order depends on hashing; "
                            "wrap in sorted(...) for deterministic traversal",
                        )
                continue
            if iter_node is not None and self._is_set_expression(iter_node):
                if not self._sorted_ancestor(ctx, iter_node):
                    yield ctx.finding(
                        self.id,
                        iter_node,
                        "iteration over a set: order depends on hashing; "
                        "wrap in sorted(...) for deterministic traversal",
                    )

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    @staticmethod
    def _sorted_ancestor(ctx: FileContext, node: ast.AST) -> bool:
        """Whether ``node`` feeds (possibly via a comprehension) ``sorted``."""
        current: ast.AST | None = node
        while current is not None:
            parent = ctx.parents.get(id(current))
            if isinstance(parent, ast.Call):
                func = parent.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    return True
            if parent is None or isinstance(parent, ast.stmt):
                return False
            current = parent
        return False


# ----------------------------------------------------------------------
# 4. Frozen-spec hash discipline
# ----------------------------------------------------------------------
@register
class SpecHashFieldsRule(Rule):
    """Every spec field is hashed or declared excluded — no silent drift."""

    id = "spec-hash-fields"
    summary = "spec fields must be content-hashed or declared in exclusion lists"
    rationale = (
        "Spec content hashes key every cache, store record and campaign "
        "resume decision. A field silently excluded from the hash (or an "
        "exclusion naming a field that no longer exists) lets two different "
        "experiments collide on one hash — stale results replayed as fresh. "
        "Exclusions must be declared in _LABEL_FIELDS/_EXECUTION_FIELDS, "
        "which are cross-checked against the dataclass by importing the "
        "module and diffing its runtime fields against the AST."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        classes = [
            node for node in ctx.tree.body if isinstance(node, ast.ClassDef)
        ]
        hashed_classes = [
            cls
            for cls in classes
            if _is_dataclass(cls) and _find_method(cls, "content_hash") is not None
        ]
        if not hashed_classes:
            return
        declared, declaration_nodes = _declared_exclusions(ctx.tree)
        ast_fields: dict[str, set[str]] = {
            cls.name: _annotated_field_names(cls) for cls in hashed_classes
        }
        all_ast_fields = set().union(*ast_fields.values()) if ast_fields else set()

        # (a) ad-hoc literal exclusions inside content_hash must be declared.
        for cls in hashed_classes:
            method = _find_method(cls, "content_hash")
            assert method is not None
            for call in ast.walk(method):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "pop"
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    name = call.args[0].value
                    if name not in declared:
                        yield ctx.finding(
                            self.id,
                            call,
                            f"{cls.name}.content_hash() excludes field "
                            f"{name!r} ad hoc; declare it in _LABEL_FIELDS/"
                            "_EXECUTION_FIELDS so the exclusion is auditable",
                        )

        # (b) declared exclusions must name real fields (no stale entries).
        for name in sorted(declared):
            if name not in all_ast_fields:
                node = declaration_nodes.get(name, hashed_classes[0])
                yield ctx.finding(
                    self.id,
                    node,
                    f"declared hash exclusion {name!r} names no field of any "
                    "content-hashed spec class in this module (stale "
                    "exclusion)",
                )

        # (c) runtime cross-check: import the module and diff dataclass
        # fields against the class-body AST (catches inherited or
        # dynamically injected fields invisible to the syntax checks).
        module = _import_for_crosscheck(ctx)
        if module is None:
            return
        for cls in hashed_classes:
            runtime_cls = getattr(module, cls.name, None)
            if runtime_cls is None or not dataclasses.is_dataclass(runtime_cls):
                continue
            runtime_fields = {f.name for f in dataclasses.fields(runtime_cls)}
            hidden = sorted(runtime_fields - ast_fields[cls.name])
            if hidden:
                yield ctx.finding(
                    self.id,
                    cls,
                    f"{cls.name} has runtime dataclass field(s) {hidden} not "
                    "declared in the class body — the content hash covers "
                    "fields the AST cannot audit",
                )


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _find_method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _annotated_field_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _declared_exclusions(
    tree: ast.Module,
) -> tuple[set[str], dict[str, ast.AST]]:
    """Module-level ``_LABEL_FIELDS``/``_EXECUTION_FIELDS`` string entries."""
    declared: set[str] = set()
    nodes: dict[str, ast.AST] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in ("_LABEL_FIELDS", "_EXECUTION_FIELDS")
                and isinstance(value, (ast.Tuple, ast.List))
            ):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        declared.add(element.value)
                        nodes[element.value] = element
    return declared, nodes


def _import_for_crosscheck(ctx: FileContext):
    """Import the checked module when it is safely importable, else None.

    The imported module must resolve to the very file being linted —
    otherwise (shadowed name, fixture copy) the cross-check would diff
    against someone else's classes.
    """
    if ctx.module_name is None:
        return None
    try:
        module = importlib.import_module(ctx.module_name)
    except Exception:
        return None
    module_file = getattr(module, "__file__", None)
    if module_file is None:
        return None
    try:
        if Path(module_file).resolve() != ctx.path.resolve():
            return None
    except OSError:  # pragma: no cover - unresolvable paths
        return None
    return module


# ----------------------------------------------------------------------
# 5. Frozen-mutation scope
# ----------------------------------------------------------------------
@register
class FrozenMutationRule(Rule):
    """``object.__setattr__`` only in ``__post_init__``/``with_*`` derivations."""

    id = "frozen-mutation"
    summary = "object.__setattr__ only inside __post_init__/with_* methods"
    rationale = (
        "Frozen dataclasses are the immutability backbone: specs hash "
        "stably and networks share topology caches because nothing mutates "
        "them after construction. object.__setattr__ is the sanctioned "
        "escape hatch for field normalisation in __post_init__ and for "
        "with_*() derivation constructors building a new instance — "
        "anywhere else it is mutation of a supposedly immutable value."
    )

    _ALLOWED_EXACT = frozenset({"__post_init__", "__setstate__", "__new__"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_chain(node.func)
            if chain != ("object", "__setattr__"):
                continue
            function = ctx.enclosing_function(node)
            if function is not None and (
                function in self._ALLOWED_EXACT or function.startswith("with_")
            ):
                continue
            where = f"in {function}()" if function else "at module level"
            yield ctx.finding(
                self.id,
                node,
                f"object.__setattr__ {where}: frozen instances may only be "
                "written during __post_init__ normalisation or with_*() "
                "derivation constructors",
            )


# ----------------------------------------------------------------------
# 6. Durable-write discipline
# ----------------------------------------------------------------------
@register
class DurableWriteRule(Rule):
    """Append-mode writes only in the fsync'd durable-append helper modules."""

    id = "durable-write"
    summary = "append-mode opens only in the fsync'd store/progress helpers"
    rationale = (
        "Crash safety is proven for exactly two append paths — the campaign "
        "store segment writer and the progress stream — which write whole "
        "records, flush and fsync before continuing. Any other append-mode "
        "open can tear records or lose them on power failure; durable "
        "writes must route through those helpers (everything else should "
        "write-temp-then-os.replace)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        config = ctx.config
        if config.module_allowed(ctx.module_name, config.durable_write_allowlist):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = _open_mode(node)
            if mode is not None and "a" in mode:
                yield ctx.finding(
                    self.id,
                    node,
                    f"append-mode open ({mode!r}) outside the durable-append "
                    f"helpers ({', '.join(config.durable_write_allowlist)}); "
                    "route durable writes through the fsync'd store/progress "
                    "appenders or write-temp-then-replace",
                )
                continue
            if _uses_o_append(ctx, node):
                yield ctx.finding(
                    self.id,
                    node,
                    "os.open(..., O_APPEND) outside the durable-append "
                    "helpers; route durable writes through the fsync'd "
                    "store/progress appenders",
                )


def _open_mode(node: ast.Call) -> str | None:
    """Mode string of an ``open``/``.open`` call, when statically known."""
    mode_position: int | None = None
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        mode_position = 1
    elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
        mode_position = 0
    if mode_position is None:
        return None
    candidate: ast.expr | None = None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            candidate = keyword.value
    if candidate is None and len(node.args) > mode_position:
        candidate = node.args[mode_position]
    if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
        return candidate.value
    return None


def _uses_o_append(ctx: FileContext, node: ast.Call) -> bool:
    chain = ctx.resolve_chain(node.func)
    if chain != ("os", "open"):
        return False
    for arg in node.args + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if ctx.resolve_chain(sub) == ("os", "O_APPEND"):
                return True
    return False


__all__ = [
    "GlobalRNGRule",
    "WallClockRule",
    "UnsortedIterationRule",
    "SpecHashFieldsRule",
    "FrozenMutationRule",
    "DurableWriteRule",
]
