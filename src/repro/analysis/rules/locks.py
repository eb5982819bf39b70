"""REPRO-LOCK — registered shared structures mutated outside their lock.

The engine's shared registries (job ids; the code claims, the context
registry and its counters; the job queue, which shares the resource
manager's lock; admission counters) are each guarded by a named lock;
every mutation must happen lexically inside ``with self.<lock>``.  The
registry below names the (class, attributes, lock) triples the project has
declared shared — this is the machine-readable form of the comments in
``Engine.__init__``, ``ShardedJobExecutor.__init__`` and the
``ResourceManager`` docstring.

``__init__`` is exempt (the object is not shared until construction
returns).  Reads are not flagged: several hot paths read counters
unlocked on purpose, and flagging reads would bury the real signal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, SourceFile

__all__ = ["GUARDED_CLASSES", "LockDisciplineRule"]

#: class name -> list of (guarded attribute names, lock attribute name).
GUARDED_CLASSES: dict[str, list[tuple[frozenset[str], str]]] = {
    "Engine": [
        (frozenset({"_job_counter", "_executor"}), "_submit_lock"),
    ],
    "ShardedJobExecutor": [
        (frozenset({"_queue", "_shutdown"}), "_lock"),
    ],
    "ResourceManager": [
        (
            frozenset({
                "_claimed", "_contexts", "_split_warm_absorbed", "task_compiles",
            }),
            "_lock",
        ),
    ],
    "AdmissionController": [
        (frozenset({"_buckets", "_inflight", "_pending"}), "_lock"),
    ],
}

#: method names whose call on a guarded attribute mutates it in place.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: methods that may run before the object is shared.
EXEMPT_METHODS = frozenset({"__init__"})


def _self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class LockDisciplineRule(Rule):
    rule_id = "REPRO-LOCK"
    description = (
        "mutation of a registered shared structure outside its 'with <lock>' block"
    )

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name in GUARDED_CLASSES:
                yield from self._check_class(source, node)

    def _check_class(self, source: SourceFile, cls: ast.ClassDef) -> Iterator[Finding]:
        guards = GUARDED_CLASSES[cls.name]
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in EXEMPT_METHODS:
                continue
            for child in item.body:
                yield from self._visit(source, cls.name, guards, child, frozenset())

    def _visit(
        self,
        source: SourceFile,
        cls_name: str,
        guards: list[tuple[frozenset[str], str]],
        node: ast.AST,
        held: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may run later, on another thread, with no
            # lock held — its body starts from a clean slate.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                yield from self._visit(source, cls_name, guards, child, frozenset())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for with_item in node.items:
                expr = with_item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                attr = _self_attr(expr)
                if attr is not None:
                    acquired.add(attr)
            for child in node.body:
                yield from self._visit(source, cls_name, guards, child, frozenset(acquired))
            return

        yield from self._check_node(source, cls_name, guards, node, held)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(source, cls_name, guards, child, held)

    def _check_node(
        self,
        source: SourceFile,
        cls_name: str,
        guards: list[tuple[frozenset[str], str]],
        node: ast.AST,
        held: frozenset[str],
    ) -> Iterator[Finding]:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            for leaf in self._unpack(target):
                attr = self._mutated_attr(leaf)
                if attr is not None:
                    yield from self._flag(source, cls_name, guards, leaf, attr, held)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = _self_attr(node.func.value)
            if attr is not None and node.func.attr in MUTATING_METHODS:
                yield from self._flag(source, cls_name, guards, node, attr, held)

    @staticmethod
    def _unpack(target: ast.AST) -> Iterator[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from LockDisciplineRule._unpack(element)
        else:
            yield target

    @staticmethod
    def _mutated_attr(target: ast.AST) -> str | None:
        """Attribute name when ``target`` rebinds or indexes ``self.<attr>``."""
        if isinstance(target, ast.Subscript):
            return _self_attr(target.value)
        return _self_attr(target)

    def _flag(
        self,
        source: SourceFile,
        cls_name: str,
        guards: list[tuple[frozenset[str], str]],
        node: ast.AST,
        attr: str,
        held: frozenset[str],
    ) -> Iterator[Finding]:
        for guarded, lock in guards:
            if attr in guarded and lock not in held:
                yield source.finding(
                    self.rule_id,
                    node,
                    f"'{cls_name}.{attr}' mutated outside 'with self.{lock}'",
                )
