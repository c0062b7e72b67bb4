"""Project-wide symbol table and call graph over the ``repro`` package.

The lint engine hands rules one parsed file at a time; the analyzers in this
package need to answer questions that span files -- "who calls whom", "which
name is a module-level binding", "what class is this variable an instance
of".  :class:`ProjectIndex` answers them from the same
:class:`~repro.lint.sources.ParsedFile` inputs the lint engine already
produces, so every analyzer rule of one lint run shares one index.

Resolution is deliberately *best-effort and deterministic*: a call that
cannot be resolved statically (duck-typed attribute calls on values of
unknown type) is recorded as unresolved rather than guessed at.  The
analyzers that consume the graph treat unresolved calls as effect-free,
which keeps findings precise (no false positives from wild aliasing) at the
cost of missing effects behind truly dynamic dispatch -- an accepted trade
documented in docs/analysis.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.sources import ParsedFile

MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
    "popleft", "set", "sort", "reverse",
}
"""Method names that mutate their receiver in place."""

RNG_DRAW_METHODS = {
    "random", "randrange", "randint", "randbytes", "getrandbits", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "expovariate",
    "gauss", "normalvariate", "lognormvariate", "betavariate",
    "gammavariate", "paretovariate", "vonmisesvariate", "weibullvariate",
    "binomialvariate", "seed", "setstate",
}
"""``random.Random`` methods that advance or reset the generator: a call is
a write to its state."""


def dotted_name(node: ast.AST) -> str | None:
    """Render an attribute/name chain like ``repro.sim.engine.Engine``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qual: str
    """``module:name`` or ``module:Class.name``."""

    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    lineno: int
    is_classmethod: bool = False
    is_staticmethod: bool = False
    is_property: bool = False


@dataclass
class ClassInfo:
    """One class definition with its methods and base-class names."""

    qual: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    """Base expressions as dotted source text (resolved lazily)."""

    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class GlobalInfo:
    """One module-level binding."""

    qual: str
    """``module:NAME``."""

    module: str
    name: str
    lineno: int
    is_rng: bool = False
    """Bound to a ``random.Random(...)`` call: its draws are writes."""


@dataclass
class ModuleEntry:
    """Everything the index knows about one module."""

    name: str
    path: str
    scope: str | None
    tree: ast.Module
    source: str
    imports: dict[str, str] = field(default_factory=dict)
    """Local name -> dotted target: a module (``repro.sim.engine``) or a
    member (``repro.sim.engine:Engine``)."""

    globals_: dict[str, GlobalInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    out = set()
    for d in node.decorator_list:
        name = dotted_name(d.func if isinstance(d, ast.Call) else d)
        if name is not None:
            out.add(name.rsplit(".", 1)[-1])
    return out


def _constructs_random(value: ast.AST, imports: dict[str, str]) -> bool:
    """Whether ``value`` is a ``random.Random(...)`` call, however the
    module or the class was imported."""
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    if name is None:
        return False
    head, _, rest = name.partition(".")
    target = imports.get(head, head)
    return (f"{target}.{rest}" if rest else target) in (
        "random.Random", "random:Random"
    )


class ProjectIndex:
    """Symbol table + call graph over a set of parsed files."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleEntry] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.callees: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: dict[str, ParsedFile]) -> "ProjectIndex":
        """Index every file, then resolve the call graph."""
        index = cls()
        for path in sorted(files):
            index._index_module(files[path])
        for mod_name in sorted(index.modules):
            index._resolve_calls(index.modules[mod_name])
        return index

    def _index_module(self, pf: ParsedFile) -> None:
        entry = ModuleEntry(
            name=pf.module, path=pf.path, scope=pf.scope,
            tree=pf.tree, source=pf.source,
        )
        self.modules[pf.module] = entry
        self._collect_imports(pf.tree, entry)
        for node in pf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(entry, node, cls_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(entry, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._add_globals(entry, node)

    def _collect_imports(self, tree: ast.Module, entry: ModuleEntry) -> None:
        # Imports at every nesting level count for *name resolution* (the
        # project uses function-local imports as deliberate cycle breakers,
        # and calls through them still need resolving).
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    local = a.asname or a.name.split(".")[0]
                    target = a.name if a.asname else a.name.split(".")[0]
                    entry.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    entry.imports[a.asname or a.name] = (
                        f"{node.module}:{a.name}"
                    )

    def _add_function(
        self,
        entry: ModuleEntry,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
    ) -> None:
        qual = (
            f"{entry.name}:{cls_name}.{node.name}" if cls_name
            else f"{entry.name}:{node.name}"
        )
        decos = _decorator_names(node)
        info = FunctionInfo(
            qual=qual, module=entry.name, cls=cls_name, name=node.name,
            node=node, path=entry.path, lineno=node.lineno,
            is_classmethod="classmethod" in decos,
            is_staticmethod="staticmethod" in decos,
            is_property="property" in decos or "cached_property" in decos,
        )
        self.functions[qual] = info
        if cls_name is None:
            entry.functions[node.name] = info
        else:
            entry.classes[cls_name].methods[node.name] = info

    def _add_class(self, entry: ModuleEntry, node: ast.ClassDef) -> None:
        qual = f"{entry.name}:{node.name}"
        info = ClassInfo(
            qual=qual, module=entry.name, name=node.name, node=node,
            path=entry.path, lineno=node.lineno,
            bases=[b for b in map(dotted_name, node.bases) if b is not None],
        )
        entry.classes[node.name] = info
        self.classes[qual] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(entry, item, cls_name=node.name)
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name) and item.value is not None:
                pass  # dataclass fields: instance state, not class globals

    def _add_globals(
        self, entry: ModuleEntry, node: ast.Assign | ast.AnnAssign
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if node.value is None:
            return
        is_rng = _constructs_random(node.value, entry.imports)
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            entry.globals_[t.id] = GlobalInfo(
                qual=f"{entry.name}:{t.id}",
                module=entry.name,
                name=t.id,
                lineno=node.lineno,
                is_rng=is_rng,
            )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def is_rng_global(self, target: str) -> bool:
        """Whether ``module:NAME`` is a module-level ``random.Random``."""
        module, _, name = target.partition(":")
        entry = self.modules.get(module)
        found = entry.globals_.get(name) if entry is not None else None
        return found is not None and found.is_rng

    def resolve_name(self, module: str, name: str) -> str | None:
        """Resolve a bare name used in ``module`` to a project symbol.

        Returns ``mod:member`` for functions/classes/globals, ``mod`` for a
        module, or None when the name is not a project symbol (builtins,
        stdlib, third-party).
        """
        entry = self.modules.get(module)
        if entry is None:
            return None
        if name in entry.functions or name in entry.classes:
            return f"{module}:{name}"
        if name in entry.globals_:
            return f"{module}:{name}"
        target = entry.imports.get(name)
        if target is None:
            return None
        if ":" in target:
            mod, member = target.split(":", 1)
            # ``from pkg import submodule`` looks like a member import but
            # names a module we scanned.
            if f"{mod}.{member}" in self.modules:
                return f"{mod}.{member}"
            if mod in self.modules:
                resolved = self._member_of(mod, member)
                if resolved is not None:
                    return resolved
            return target if mod.split(".")[0] == "repro" else None
        if target in self.modules:
            return target
        return target if target.split(".")[0] == "repro" else None

    def _member_of(self, module: str, member: str) -> str | None:
        """``module:member`` if it names a function/class/global there,
        following one level of re-export through package ``__init__``."""
        entry = self.modules.get(module)
        if entry is None:
            return None
        if member in entry.functions or member in entry.classes \
                or member in entry.globals_:
            return f"{module}:{member}"
        # Package __init__ re-export: chase its own import of the name.
        reexport = entry.imports.get(member)
        if reexport is not None and ":" in reexport:
            mod2, member2 = reexport.split(":", 1)
            if mod2 != module and mod2 in self.modules:
                return self._member_of(mod2, member2)
        elif reexport is not None and reexport in self.modules:
            return reexport
        return None

    def resolve_class(self, module: str, dotted: str) -> ClassInfo | None:
        """Resolve a dotted type expression to a project class, if any."""
        head, _, rest = dotted.partition(".")
        target = self.resolve_name(module, head)
        if target is None:
            return None
        if rest and ":" not in target and target in self.modules:
            target = self._member_of(target, rest) or target
        cls = self.classes.get(target)
        return cls

    def method_on(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Look up a method on a class, walking project-resolvable bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop(0)
            if c.qual in seen:
                continue
            seen.add(c.qual)
            if name in c.methods:
                return c.methods[name]
            for base in c.bases:
                resolved = self.resolve_class(c.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _local_types(
        self, fn: FunctionInfo
    ) -> dict[str, ClassInfo]:
        """Best-effort local-variable / parameter types within a function.

        Sources: ``self`` (the enclosing class), annotated parameters whose
        annotation resolves to a project class, and assignments from a
        project-class constructor call.
        """
        types: dict[str, ClassInfo] = {}
        if fn.cls is not None and not fn.is_staticmethod:
            args = fn.node.args
            receiver = None
            if args.posonlyargs:
                receiver = args.posonlyargs[0].arg
            elif args.args:
                receiver = args.args[0].arg
            if receiver is not None and not fn.is_classmethod:
                cls = self.classes.get(f"{fn.module}:{fn.cls}")
                if cls is not None:
                    types[receiver] = cls
        all_args = (
            list(fn.node.args.posonlyargs) + list(fn.node.args.args)
            + list(fn.node.args.kwonlyargs)
        )
        for a in all_args:
            if a.annotation is None:
                continue
            ann = a.annotation
            # Strip `X | None` unions and string annotations.
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                text = ann.value.split("|")[0].strip()
            else:
                if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
                    ann = ann.left
                text = dotted_name(ann) or ""
            if text:
                cls = self.resolve_class(fn.module, text)
                if cls is not None:
                    types[a.arg] = cls
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = dotted_name(node.value.func)
                if name is None:
                    continue
                cls = self.resolve_class(fn.module, name)
                if cls is None:
                    continue
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        types[t.id] = cls
        return types

    def _resolve_call(
        self, fn: FunctionInfo, call: ast.Call,
        types: dict[str, ClassInfo],
    ) -> str | None:
        """The ``module:qualname`` a call resolves to, or None."""
        func = call.func
        callee: str | None = None
        if isinstance(func, ast.Name):
            target = self.resolve_name(fn.module, func.id)
            if target is not None and ":" in target:
                mod, member = target.split(":", 1)
                if target in self.functions:
                    callee = target
                elif target in self.classes:
                    init = self.method_on(self.classes[target], "__init__")
                    callee = init.qual if init is not None else target
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            base = func.value
            if isinstance(base, ast.Name) and base.id in types:
                m = self.method_on(types[base.id], attr)
                callee = m.qual if m is not None else None
            else:
                name = dotted_name(func)
                if name is not None:
                    head, _, rest = name.rpartition(".")
                    target = None
                    if head:
                        target = self.resolve_name(fn.module, head) \
                            if "." not in head else None
                        if target is None and head in self.modules:
                            target = head
                        # Dotted module path used directly (import repro.x.y).
                        if target is None:
                            root = head.split(".")[0]
                            resolved_root = self.resolve_name(fn.module, root)
                            if resolved_root is not None and \
                                    ":" not in resolved_root:
                                candidate = ".".join(
                                    [resolved_root] + head.split(".")[1:]
                                )
                                if candidate in self.modules:
                                    target = candidate
                    if target is not None and ":" not in target:
                        member = self._member_of(target, rest)
                        if member is not None and member in self.functions:
                            callee = member
                        elif member is not None and member in self.classes:
                            init = self.method_on(
                                self.classes[member], "__init__")
                            callee = init.qual if init is not None else member
                    elif target is not None and target in self.classes:
                        m = self.method_on(self.classes[target], rest)
                        callee = m.qual if m is not None else None
        return callee

    def _resolve_calls(self, entry: ModuleEntry) -> None:
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            if fn.module != entry.name:
                continue
            types = self._local_types(fn)
            callees = {
                self._resolve_call(fn, node, types)
                for node in ast.walk(fn.node) if isinstance(node, ast.Call)
            }
            callees.discard(None)
            self.callees[qual] = callees

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(self, roots: list[str]) -> dict[str, str]:
        """Functions reachable from ``roots`` through resolved calls.

        Returns ``{function qual: first root it was reached from}`` --
        enough provenance for a finding to explain *why* a function counts
        as runner-cell-reachable.
        """
        out: dict[str, str] = {}
        for root in roots:
            if root not in self.functions:
                continue
            stack = [root]
            while stack:
                qual = stack.pop()
                if qual in out:
                    continue
                out[qual] = root
                for callee in sorted(self.callees.get(qual, ())):
                    if callee not in out:
                        stack.append(callee)
        return out
