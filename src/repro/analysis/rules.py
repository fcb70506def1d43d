"""AST-based numerical-safety linter with repo-specific rules.

The rules encode the failure modes that matter for a lossy-compression
training system (PAPER.md section 3): silent precision changes, aliased
error-feedback state, and in-place mutation of shared chunk views.
None of them crash at runtime — they corrupt results quietly, which is
exactly why they are checked statically.  REP002 applies to the hot
paths only (:data:`HOT_PATH_PARTS`); for REP006, ``view[:] = ...``
stores into freshly allocated output buffers are the supported pattern
and not flagged.  The rules:

"""

from __future__ import annotations

import ast
import os
from collections import defaultdict, deque
from dataclasses import replace
from typing import Callable, Iterable, Iterator

from .findings import Finding, rule_table, sort_findings

__all__ = ["RULES", "HOT_PATH_PARTS", "SourceFile", "call_name",
           "lint_source", "lint_file", "iter_python_files", "lint_roots",
           "run_lint"]

#: rule id -> one-line description (mirrored in docs/analysis.md)
RULES = {
    "REP001": "float equality comparison against a float literal",
    "REP002": "default-dtype array creation in a hot path",
    "REP003": "error-feedback state stores a reference without .copy()",
    "REP004": "mutable default argument",
    "REP005": "bare except",
    "REP006": "in-place op on a chunk view returned by split_chunks",
}
__doc__ = rule_table(__doc__, RULES)

#: a file whose path contains one of these directory names is "hot path"
#: for REP002 (where float64 upcasts change wire sizes and error)
HOT_PATH_PARTS = ("compression", "collectives")

_DEFAULT_DTYPE_FUNCS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2,
                        "arange": 3}  # name -> positional args before dtype
_NUMPY_ALIASES = {"np", "numpy"}
_STATE_HINTS = ("residual", "carry", "error", "feedback", "momentum",
                "memory", "state")
_MUTABLE_CTORS = {"list", "dict", "set"}


def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _root_name(node: ast.AST) -> str | None:
    """Base ``Name`` id under a Subscript/Attribute chain, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_split_chunks_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "split_chunks"
    if isinstance(func, ast.Attribute):
        return func.attr == "split_chunks"
    return False


def _is_view_expr(value: ast.AST, views: set[str]) -> bool:
    """Does ``value`` evaluate to a split_chunks view (or container of)?

    Structural, not a contains-scan: a comprehension that *iterates*
    split_chunks but builds copies (``[c.copy() for c in split_chunks(b, n)]``)
    is not a view.
    """
    if _is_split_chunks_call(value):
        return True
    if isinstance(value, ast.Name):
        return value.id in views
    if isinstance(value, ast.Subscript):
        return _is_view_expr(value.value, views)
    if isinstance(value, ast.ListComp):
        return _is_view_expr(value.elt, views)
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(_is_view_expr(elt, views) for elt in value.elts)
    return False


def _target_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment/loop target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def call_name(call: ast.Call) -> tuple[str | None, str]:
    """(qualifier, name) of a call: ``time.sleep`` -> ("time", "sleep");
    a bare ``f()`` has qualifier ``None``, a deeper chain ``""``."""
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            return func.value.id, func.attr
        return "", func.attr
    return None, ""


class SourceFile:
    """One parsed python file, as every file rule sees it (REP, DLV006,
    OVL006, SCD007): the function-scope walk and the snippet-carrying
    :class:`Finding` constructor."""

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)

    def finding(self, rule: str, node: ast.AST, message: str,
                source: str = "lint") -> Finding:
        """A diagnostic anchored at ``node``, carrying its source line."""
        line = getattr(node, "lineno", 0)
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) \
            else ""
        return Finding(rule=rule, path=self.path, line=line,
                       col=getattr(node, "col_offset", 0), message=message,
                       source=source, snippet=snippet)

    def functions(self) -> Iterator[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef, list[ast.AST]]]:
        """Every function definition with the nodes of its *own* scope:
        nested defs and lambdas are excluded (nested defs are yielded as
        functions of their own)."""
        for func in ast.walk(self.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own: list[ast.AST] = []
            stack = list(ast.iter_child_nodes(func))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                own.append(node)
                stack.extend(ast.iter_child_nodes(node))
            yield func, own


class _FileChecker:
    def __init__(self, file: SourceFile, hot_path: bool) -> None:
        self.file = file
        self.hot_path = hot_path
        self.findings: list[Finding] = []

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(self.file.finding(rule, node, message))

    def run(self) -> list[Finding]:
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for node in ast.walk(self.file.tree):
            if isinstance(node, ast.Compare):
                self._check_float_equality(node)
            elif isinstance(node, ast.Call):
                self._check_default_dtype(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_mutable_defaults(node)
                functions.append(node)
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                self.emit("REP005", node,
                          "bare 'except:' swallows every error including "
                          "KeyboardInterrupt; name the exceptions")
        self._check_scope(self.file.tree.body, params=())
        for node in functions:
            args = node.args
            params = tuple(
                a.arg for a in (args.posonlyargs + args.args
                                + args.kwonlyargs)
            ) + tuple(a.arg for a in (args.vararg, args.kwarg) if a)
            self._check_scope(node.body, params=params)
        return self.findings

    # -- REP001 ------------------------------------------------------
    def _check_float_equality(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(operands[i]) or _is_float_literal(
                    operands[i + 1]):
                self.emit("REP001", node,
                          "float equality is precision-fragile; compare "
                          "with a tolerance or an ordered bound")
                break

    # -- REP002 ------------------------------------------------------
    def _check_default_dtype(self, node: ast.Call) -> None:
        if not self.hot_path:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_ALIASES
                and func.attr in _DEFAULT_DTYPE_FUNCS):
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        if len(node.args) > _DEFAULT_DTYPE_FUNCS[func.attr]:
            return  # dtype passed positionally
        self.emit("REP002", node,
                  f"np.{func.attr} defaults to float64 here; hot-path "
                  f"buffers must pin dtype (the wire format is fp32)")

    # -- REP004 ------------------------------------------------------
    def _check_mutable_defaults(
            self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            )
            if mutable:
                self.emit("REP004", default,
                          "mutable default argument is shared across "
                          "calls; default to None and create inside")

    # -- REP003 + REP006 (scope-sensitive) ---------------------------
    def _check_scope(self, body: list[ast.stmt], params: tuple[str, ...]
                     ) -> None:
        """One pass over a function (or module) body.

        Tracks which local names alias caller-owned arrays (REP003) and
        which names are views from ``split_chunks`` (REP006).  Nested
        function bodies are skipped here — they get their own scope pass.
        """
        aliases = set(params)
        fresh: set[str] = set()
        views: set[str] = set()
        for stmt in self._scope_statements(body):
            if isinstance(stmt, ast.Assign):
                self._track_assign(stmt, aliases, fresh, views)
                self._check_state_alias(stmt, aliases, fresh)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._track_loop(stmt, views)
            elif isinstance(stmt, ast.AugAssign):
                root = _root_name(stmt.target)
                if root is not None and root in views:
                    self.emit("REP006", stmt,
                              "augmented assignment on a split_chunks view "
                              "accumulates into the parent buffer; operate "
                              "on a .copy() or write via a fresh output")

    def _scope_statements(self, body: list[ast.stmt]) -> Iterator[ast.stmt]:
        """All statements in this scope, not descending into defs.

        Breadth-first: a block's statements, then its nested blocks, then
        the bodies of its ``except``/``except*`` handlers and ``match``
        cases.
        """
        queue = deque(body)
        while queue:
            stmt = queue.popleft()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for field_body in ("body", "orelse", "finalbody"):
                queue.extend(getattr(stmt, field_body, ()))
            for clause in (*getattr(stmt, "handlers", ()),
                           *getattr(stmt, "cases", ())):
                queue.extend(clause.body)

    def _track_assign(self, stmt: ast.Assign, aliases: set[str],
                      fresh: set[str], views: set[str]) -> None:
        value = stmt.value
        value_is_view = _is_view_expr(value, views)
        value_is_alias = isinstance(value, (ast.Attribute, ast.Subscript)) \
            or (isinstance(value, ast.Name)
                and (value.id in aliases or value.id not in fresh))
        for target in stmt.targets:
            for name in _target_names(target):
                views.discard(name)
                aliases.discard(name)
                fresh.discard(name)
                if value_is_view:
                    views.add(name)
                elif value_is_alias:
                    aliases.add(name)
                else:
                    fresh.add(name)

    def _track_loop(self, stmt: ast.For | ast.AsyncFor,
                    views: set[str]) -> None:
        it = stmt.iter
        over_views = (
            _is_split_chunks_call(it)
            or (isinstance(it, ast.Name) and it.id in views)
            or (isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("enumerate", "reversed", "zip")
                and any(_is_split_chunks_call(a)
                        or (isinstance(a, ast.Name) and a.id in views)
                        for a in it.args))
        )
        if over_views:
            for name in _target_names(stmt.target):
                views.add(name)

    def _check_state_alias(self, stmt: ast.Assign, aliases: set[str],
                           fresh: set[str]) -> None:
        for target in stmt.targets:
            hint = self._state_hint(target)
            if hint is None:
                continue
            if self._is_aliasing_value(stmt.value, aliases, fresh):
                self.emit("REP003", stmt,
                          f"assigning a reference into {hint!r}; the next "
                          f"in-place update corrupts the caller's array — "
                          f"store a .copy()")

    @staticmethod
    def _state_hint(target: ast.AST) -> str | None:
        """State-container name hinted by an assignment target, if any.

        Only keyed stores (``self._residuals[key] = ...``) count: that is
        the per-(worker, layer) state shape error feedback uses, while a
        plain ``self.momentum = momentum`` is scalar configuration.
        """
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                name = base.attr
            elif isinstance(base, ast.Name):
                name = base.id
            else:
                return None
        else:
            return None
        lowered = name.lower()
        for needle in _STATE_HINTS:
            if needle in lowered:
                return name
        return None

    def _is_aliasing_value(self, value: ast.AST, aliases: set[str],
                           fresh: set[str]) -> bool:
        if isinstance(value, ast.Name):
            return value.id in aliases or value.id not in fresh
        if isinstance(value, (ast.Attribute, ast.Subscript)):
            return True
        if isinstance(value, ast.IfExp):
            return (self._is_aliasing_value(value.body, aliases, fresh)
                    or self._is_aliasing_value(value.orelse, aliases, fresh))
        return False


def _is_hot_path(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(part in HOT_PATH_PARTS for part in parts)


def lint_source(source: str, path: str = "<string>",
                hot_path: bool | None = None) -> list[Finding]:
    """Lint python ``source``; ``hot_path`` defaults from the path."""
    if hot_path is None:
        hot_path = _is_hot_path(path)
    checker = _FileChecker(SourceFile(source, path), hot_path)
    return sort_findings(checker.run())


def lint_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
                and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_roots(roots: Iterable[str],
               linter: Callable[[str, str], list[Finding]],
               relative: bool = True) -> list[Finding]:
    """Run a per-source ``linter(source, path)`` over every python file
    under ``roots``; sort and occurrence-number the results.

    The one file-walk → lint → sort → number pipeline behind the static
    rule families (REP, DLV006, OVL006, SCD007).  Occurrence numbers
    disambiguate identical (rule, path, snippet) lines so
    fingerprints stay stable; ``relative`` reports paths relative to
    the working directory, which keeps those fingerprints independent
    of where the package is installed.
    """
    findings: list[Finding] = []
    for path in iter_python_files(roots):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(
            linter(source, os.path.relpath(path) if relative else path))
    seen: dict[tuple, int] = defaultdict(int)
    numbered = []
    for finding in sort_findings(findings):
        ident = (finding.rule, finding.path, finding.snippet)
        numbered.append(replace(finding, occurrence=seen[ident]))
        seen[ident] += 1
    return numbered


def run_lint(paths: Iterable[str]) -> list[Finding]:
    """Lint every python file under ``paths``; occurrence-number results."""
    return lint_roots(paths, lint_source, relative=False)
