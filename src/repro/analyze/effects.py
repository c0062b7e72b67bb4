"""Effects inference: what state does each function mutate?

For every function in the :class:`~repro.analyze.project.ProjectIndex` this
module computes an :class:`EffectSet`:

* ``class_writes`` -- class attributes assigned through a project class
  (``Cls.registry[...] = ...``);
* ``global_writes`` -- module-level bindings assigned or mutated, in this
  module (including through a ``global`` declaration and through one level
  of local aliasing, ``table = REGISTRY; table[k] = v``) or in another
  module through an import (``SCHEMES["ni"] = ...``); a draw from a
  module-level ``random.Random`` (``_RNG.random()``) advances shared state,
  so it counts as a write;
* ``param_writes`` -- attribute stores on a *parameter* whose type resolves
  to a project class (``net.trace = ...``): mutation of caller-owned state.

Writes through the receiver (``self.x = ...``) are the object's own state
and are not recorded.  Effects are *direct*: each is charged to the
function that performs the write, not to its callers.  The
``runtime-global-mutation`` rule walks the call graph itself (runner-cell
reachability), so a write reachable from a cell is reported once, at the
function that makes it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analyze.project import (
    MUTATING_METHODS,
    RNG_DRAW_METHODS,
    FunctionInfo,
    ProjectIndex,
)


@dataclass
class EffectSet:
    """Mutation footprint of one function."""

    class_writes: dict[str, int] = field(default_factory=dict)
    """``module:Cls.attr`` -> line."""

    global_writes: dict[str, int] = field(default_factory=dict)
    """``module:NAME`` -> line."""

    param_writes: dict[str, int] = field(default_factory=dict)
    """``ClassQual.attr`` -> line (attribute stores on typed parameters)."""


def _receiver_name(fn: FunctionInfo) -> str | None:
    """The ``self`` parameter name of a method (None for functions)."""
    if fn.cls is None or fn.is_staticmethod or fn.is_classmethod:
        return None
    args = fn.node.args
    if args.posonlyargs:
        return args.posonlyargs[0].arg
    if args.args:
        return args.args[0].arg
    return None


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` a subscript/attribute chain hangs off."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FunctionEffects:
    """Single-function direct-effect extraction."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo) -> None:
        self.index = index
        self.fn = fn
        self.entry = index.modules[fn.module]
        self.receiver = _receiver_name(fn)
        self.effects = EffectSet()
        self.globals_declared: set[str] = set()
        self.aliases: dict[str, str] = {}
        """Local name -> module-global name it aliases (one level)."""

        self.locals_: set[str] = {
            a.arg for a in (
                list(fn.node.args.posonlyargs) + list(fn.node.args.args)
                + list(fn.node.args.kwonlyargs)
            )
        }
        self.param_types = {
            name: cls for name, cls in index._local_types(fn).items()
            if name in self.locals_ and name != self.receiver
        }

    # -- helpers -------------------------------------------------------
    def _global_target(self, name: str) -> str | None:
        """``module:NAME`` if ``name`` denotes a module-level binding."""
        name = self.aliases.get(name, name)
        if name in self.locals_:
            return None
        if name in self.entry.globals_:
            return f"{self.fn.module}:{name}"
        target = self.index.resolve_name(self.fn.module, name)
        if target is not None and ":" in target:
            mod, member = target.split(":", 1)
            mod_entry = self.index.modules.get(mod)
            if mod_entry is not None and member in mod_entry.globals_:
                return target
        return None

    def _note_store(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.effects.global_writes.setdefault(
                    f"{self.fn.module}:{target.id}", lineno)
            else:
                self.locals_.add(target.id)
            return
        root = _root_name(target)
        if root is None:
            return
        if root == self.receiver:
            return
        if root in self.param_types:
            attr = self._first_attr(target)
            if attr is not None:
                cls = self.param_types[root]
                self.effects.param_writes.setdefault(
                    f"{cls.qual}.{attr}", lineno)
            return
        glob = self._global_target(root)
        if glob is not None:
            self.effects.global_writes.setdefault(glob, lineno)
            return
        cls_target = self.index.resolve_name(self.fn.module, root)
        if cls_target is not None and cls_target in self.index.classes \
                and isinstance(target, (ast.Attribute, ast.Subscript)):
            attr = self._first_attr(target) or "?"
            self.effects.class_writes.setdefault(
                f"{cls_target}.{attr}", lineno)

    def _first_attr(self, target: ast.AST) -> str | None:
        """First attribute hop off the root name (``a.x[0].y`` -> ``x``)."""
        chain: list[ast.AST] = []
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            chain.append(node)
            node = node.value
        for hop in reversed(chain):
            if isinstance(hop, ast.Attribute):
                return hop.attr
        return None

    # -- walk ----------------------------------------------------------
    def run(self) -> EffectSet:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                self._maybe_alias(node)
                for t in node.targets:
                    self._note_store(t, node.lineno)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                self._note_store(node.target, node.lineno)
            elif isinstance(node, (ast.Delete,)):
                for t in node.targets:
                    self._note_store(t, node.lineno)
            elif isinstance(node, ast.Call):
                self._note_mutating_call(node)
            elif isinstance(node, ast.For):
                self._note_loop_target(node.target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._note_loop_target(item.optional_vars)
        return self.effects

    def _note_loop_target(self, target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.locals_.add(node.id)

    def _maybe_alias(self, node: ast.Assign) -> None:
        """Record ``local = GLOBAL`` / ``local = GLOBAL[...]`` aliases."""
        root = _root_name(node.value) if not isinstance(
            node.value, ast.Call) else None
        if root is None:
            return
        resolved = self.aliases.get(root, root)
        if resolved in self.locals_:
            return
        if self._global_target(resolved) is None:
            return
        for t in node.targets:
            if isinstance(t, ast.Name):
                self.aliases[t.id] = resolved

    def _note_mutating_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in RNG_DRAW_METHODS and isinstance(func.value, ast.Name):
            glob = self._global_target(func.value.id)
            if glob is not None and self.index.is_rng_global(glob):
                self.effects.global_writes.setdefault(glob, node.lineno)
                return
        if func.attr not in MUTATING_METHODS:
            return
        root = _root_name(func.value)
        if root is None:
            return
        if root == self.receiver:
            return
        if root in self.param_types:
            attr = self._first_attr(func.value)
            if attr is not None:
                self.effects.param_writes.setdefault(
                    f"{self.param_types[root].qual}.{attr}", node.lineno)
            return
        glob = self._global_target(root)
        if glob is not None:
            self.effects.global_writes.setdefault(glob, node.lineno)


def infer_effects(index: ProjectIndex) -> dict[str, EffectSet]:
    """Direct effects of every project function, keyed by qualname."""
    return {
        qual: _FunctionEffects(index, index.functions[qual]).run()
        for qual in sorted(index.functions)
    }
