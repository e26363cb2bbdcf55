"""The package's static code rules, in one table with one walker.

Each file of ``src/whichway`` is parsed once, and :func:`walk` yields every
node with its module and the qualified name of the def or class around it.
A :class:`Rule` row holds a predicate that names the offence a node commits
(or returns None), the modules it covers, its exemptions, each keyed
(module, qualname) with a reason, and planted sources: each ``flags`` source
is flagged once, at its last line, and each ``passes`` source passes, when
parsed as the module it is listed under. The positive structure checks (the
CLI calls ``certify_run``; the benchmark's trace targets and the package
exports resolve) read the same parsed trees. One check runs code: every
module-level array of the package, alone or in a module-level container,
and every array of a ``functools.cache`` constant is read-only.
"""

import ast
import dataclasses
import importlib
import inspect
import types
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from whichway import WhichWayError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "whichway"
MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")))


def walk(module: str, tree: ast.AST):
    """Yield ``(module, qualname, node)`` for every node of ``tree``. The
    qualname dots the names of the enclosing defs and classes (``Class.method``,
    ``outer.inner``; a def or class is inside its own) and is "" at module
    level."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield module, scope, node
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


TREES = {m: ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES}
NODES = {m: tuple(walk(m, tree)) for m, tree in TREES.items()}


def namespace(module: str) -> dict:
    return vars(importlib.import_module("whichway" if module == "__init__" else f"whichway.{module}"))


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _open_call(node) -> str | None:
    """``open`` or ``fdopen`` if ``node`` calls it, bare or as an attribute."""
    if isinstance(node, ast.Call) and _name(node.func) in ("open", "fdopen"):
        return _name(node.func)
    return None


def writing_open(node, ns):
    """An ``open``/``fdopen`` call whose mode writes ("w", "a", "x" or "+")
    or is not a string literal."""
    name = _open_call(node)
    if not name:
        return None
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is not None and (not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                             or set(mode.value) & set("wax+")):
        return f"{name} with mode {ast.unparse(mode)}"
    return None


def open_or_csv(node, ns):
    """An ``open``/``fdopen`` call in any mode, or an import of ``csv``."""
    if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "csv" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv"):
        return "import of csv"
    return _open_call(node)


def bool_isinstance(node, ns):
    """``isinstance(x, bool)`` or ``isinstance(x, (..., bool, ...))``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return None
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
        return "isinstance(..., bool)"
    return None


def foreign_raise(node, ns):
    """``raise X`` or ``raise X(...)`` whose X is not a plain name bound in
    the module to a WhichWayError subclass; a bare re-raise passes."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return None
    name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    cls = ns.get(name)
    return None if isinstance(cls, type) and issubclass(cls, WhichWayError) else f"raise {name}"


def inline_real(node, ns):
    """A chained comparison (``not lo < x <= hi``), an import of ``numbers``
    or a use of ``numbers.Real``."""
    if isinstance(node, ast.Compare) and len(node.ops) > 1:
        return "chained comparison"
    if isinstance(node, ast.Attribute) and ast.unparse(node) == "numbers.Real":
        return "numbers.Real"
    if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
        return "import of numbers"
    return None


def certification_policy(node, ns):
    """A certificate builder or ``COMPLEMENTARY``, named or called."""
    name = _name(node)
    if name and ("COMPLEMENTARY" in name
                 or name in ("swap_certificate", "single_preparation_certificate")):
        return name
    return None


def private_name(node, ns):
    """An import of a private name from the package, or an attribute of a
    package module whose name starts with ``_``."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "whichway"):
        private = [a.name for a in node.names if a.name.startswith("_")]
        return f"import of {', '.join(private)}" if private else None
    if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)):
        module = ns.get(node.value.id)
        if isinstance(module, types.ModuleType) and module.__name__.split(".")[0] == "whichway":
            return ast.unparse(node)
    return None


def _root_name(node) -> str | None:
    """The name an attribute or subscript chain starts from (``self`` of
    ``self.kraus[0]``), or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def cache_decorator(node, ns):
    """A def decorated with ``functools.cache``, ``lru_cache`` or
    ``cached_property``, bare, as an attribute or called."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    for dec in node.decorator_list:
        if _name(dec.func if isinstance(dec, ast.Call) else dec) in (
                "cache", "lru_cache", "cached_property"):
            return f"@{ast.unparse(dec)}"
    return None


def raw_array_read(node, ns):
    """A call of ``eigh``, or a def that reads one of its own parameters with
    ``np.array``/``np.asarray(..., dtype=complex)``: the array rule and
    ``psd_eigh`` in ``linalg`` do both."""
    if isinstance(node, ast.Call) and _name(node.func) == "eigh":
        return ast.unparse(node.func)
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    a = node.args
    params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call) and _name(call.func) in ("array", "asarray")
                and call.args and _root_name(call.args[0]) in params):
            continue
        dtype = [k.value for k in call.keywords if k.arg == "dtype"] + call.args[1:2]
        if any(ast.unparse(d) == "complex" for d in dtype):
            return f"{ast.unparse(call)} of a parameter"
    return None


def filter_dimension(node, ns):
    """A comparison with the dimension of a filter ket, ``.chi0.size`` or
    ``.chi1.size``."""
    if not isinstance(node, ast.Compare):
        return None
    for side in (node.left, *node.comparators):
        if (isinstance(side, ast.Attribute) and side.attr == "size"
                and _name(side.value) in ("chi0", "chi1")):
            return f"comparison with {ast.unparse(side)}"
    return None


def generator_call(node, ns):
    """A call of ``default_rng``, bare or as an attribute, or of any other
    function of ``numpy.random`` (``np.random.f(...)``)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if _name(func) == "default_rng" or (isinstance(func, ast.Attribute)
                                        and _name(func.value) == "random"
                                        and _root_name(func.value) in ("np", "numpy")):
        return f"{ast.unparse(func)}()"
    return None


def eigvalsh_call(node, ns):
    """A call of ``eigvalsh`` or of the binding ``_eigvalsh``, bare or as an
    attribute."""
    if isinstance(node, ast.Call) and _name(node.func) in ("eigvalsh", "_eigvalsh"):
        return f"{ast.unparse(node.func)}()"
    return None


def lapack_spectrum(node, ns):
    """A name of numpy's ``_umath_linalg`` (a name, an attribute, an import
    or a string), or a call of ``eigvalsh``, ``svdvals`` or
    ``svd(..., compute_uv=False)``, bare or as an attribute."""
    if isinstance(node, ast.Call):
        name = _name(node.func)
        if name in ("eigvalsh", "svdvals") or name == "svd" and any(
                k.arg == "compute_uv" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in node.keywords):
            return f"{ast.unparse(node.func)}()"
        return None
    if isinstance(node, ast.alias):
        named = node.name.split(".")
    elif isinstance(node, ast.ImportFrom):
        named = (node.module or "").split(".")
    elif isinstance(node, ast.Constant):
        named = [node.value]
    else:
        named = [_name(node)]
    return "_umath_linalg" if "_umath_linalg" in named else None


class Exempt(NamedTuple):
    module: str
    qualname: str  # covers the defs and classes nested in it too
    reason: str
    offence: str = ""  # the one offence allowed there; "" allows any

    def covers(self, module: str, qualname: str, offence: str) -> bool:
        return (module == self.module and self.offence in ("", offence)
                and (qualname == self.qualname or qualname.startswith(self.qualname + ".")))


@dataclass(frozen=True)
class Rule:
    name: str
    offence: Callable  # (node, module namespace) -> the offence, or None
    modules: tuple
    exempt: tuple
    flags: dict  # module -> sources
    passes: dict

    def offenders(self, module: str, nodes) -> list[tuple[int, str]]:
        ns = namespace(module)
        return sorted((node.lineno, what) for _, qualname, node in nodes
                      if (what := self.offence(node, ns))
                      and not any(e.covers(module, qualname, what) for e in self.exempt))


_ARGPARSE = "argparse reports ArgumentTypeError as `argument FLAG: ...` with exit 2"

RULES = (
    Rule("writing-open", writing_open, MODULES, (
        Exempt("_files", "write_text", "the one writer of every file the package writes"),
        Exempt("_files", "stdout_to_devnull", "points stdout at os.devnull after a broken pipe"),
    ), flags={"bounds": (
        'open(p, "w", encoding="ascii")', "open(p, mode='a')", 'io.open(p, "x")',
        'os.fdopen(fd, "wb")', 'open(p, "r+")', "open(p, mode)",
    )}, passes={"bounds": ('open(p, "r", encoding="ascii")', "open(p)", "p.open()")}),
    # _files is the one module that opens a file and knows the CSV dialect
    Rule("open-or-csv", open_or_csv, tuple(m for m in MODULES if m != "_files"), (), flags={
        "bounds": ('open(p, "r", encoding="ascii")', "open(p)", "p.open()", "os.fdopen(fd)",
                   "os.open(p, os.O_RDONLY)", "import csv", "import os, csv",
                   "from csv import reader"),
    }, passes={"bounds": ("import io", "from . import csvlike", "read_csv(p)")}),
    Rule("bool-isinstance", bool_isinstance, MODULES, (
        Exempt("linalg", "int_at_least", "the one integer rule: a bool is not an integer"),
    ), flags={"linalg": (
        "isinstance(v, bool)", "isinstance(v, (bool, np.bool_))",
        "ok = isinstance(v, (int, bool)) or v < 0",
        "def int_at_least(v):\n    pass\nisinstance(v, bool)",
    ), "interferometer": ("ok = not any(isinstance(p, bool) for p in phases)",)}, passes={"linalg": (
        "isinstance(v, int)", "isinstance(v, (int, np.integer))", "bool(v)",
        "def int_at_least(v):\n    return isinstance(v, bool)",
    )}),
    Rule("foreign-raise", foreign_raise, MODULES, (
        Exempt("interferometer", "_refuse_rows", "its callers pass the package error class",
               "raise error"),
        Exempt("cli", "_at_least.parse", _ARGPARSE, "raise argparse.ArgumentTypeError"),
        Exempt("cli", "_non_empty.parse", _ARGPARSE, "raise argparse.ArgumentTypeError"),
    ), flags={"cli": (
        "raise ValueError('x')", "raise KeyError", "raise make()('x')",
        "raise argparse.ArgumentTypeError('x')",
        "def parse(text):\n    raise argparse.ArgumentError('x')",
        "def parse(text):\n    raise ArgumentTypeError('x')",
    ), "interferometer": (
        "raise error('x')", "def other(error):\n    raise error('x')",
        "def _refuse_rows(error):\n    raise ValueError('x')",
    )}, passes={"cli": (
        "raise DimensionError('x')", "raise DimensionError('x') from None", "raise DimensionError",
        "try:\n    pass\nexcept KeyError:\n    raise",
        "def _at_least(flag):\n    def parse(text):\n        raise argparse.ArgumentTypeError('x')",
    ), "interferometer": ("def _refuse_rows(error):\n    raise error('x')",)}),
    # linalg holds real_in, the one rule for a real setting
    Rule("inline-real", inline_real, tuple(m for m in MODULES if m != "linalg"), (
        Exempt("bounds", "FractionalVisibilityRecord.__post_init__",
               "p in [0, 1 + 1e-12], beside the record's five-field finiteness check"),
        Exempt("cli", "parse_channel", "the CLI's integer caps on --d and K"),
    ), flags={"bounds": (
        # the retired checks of jones_matrix, _counting_settings, _counting_phases
        # and binomial_resample, as they were
        "if not isinstance(angle_deg, numbers.Real): pass",
        "if not -180.0 <= angle_deg <= 180.0: pass",
        "ok = any(not 0.0 < e <= 1.0 for e in efficiencies)",
        "if not 0.0 < contrast <= 1.0: pass",
        "if not 0.0 < reference_efficiency <= min(ds.efficiencies): pass",
        "import numbers", "from numbers import Real", "import math, numbers",
        "class FringeDataset:\n    def __post_init__(self):\n        ok = 0 < self.p <= 1",
        "def _counting_phases(c):\n    return 0 < c <= 1",
    )}, passes={"bounds": (
        "real_in(contrast, 'contrast', 0.0, 1.0, open_low=True)", "ok = a < b",
        "ok = a < b and b <= c",
        "class FractionalVisibilityRecord:\n    def __post_init__(self):\n        ok = 0 <= p <= 1",
    ), "cli": ("def parse_channel(d):\n    return 1 <= d <= 16",)}),
    # linalg holds the one array rule and psd_eigh; a def is flagged at its
    # first line, so a planted conversion is a one-line def
    Rule("raw-array-read", raw_array_read, tuple(m for m in MODULES if m != "linalg"), (),
         flags={"channels": (
             # the retired reads of replace_channel, block_map and PathChannel
             "def replace_channel(sigma0):\n    w, vecs = np.linalg.eigh(hermitian_part(sigma0))",
             "def block_map(ch, i, j, sigma): sigma = np.asarray(sigma, dtype=complex)",
             "def __post_init__(self): kraus = np.array(self.kraus, dtype=complex)",
             "def f(m): return numpy.array(m[0], complex)",
             "w, v = scipy.linalg.eigh(m)", "from numpy.linalg import eigh\nw, v = eigh(m)",
         ), "interferometer": (
             "def _probability_tables(ch, kets, filters): psi = np.array(kets, dtype=complex)",
             "def f(*kets, **kw): return np.asarray(kw['a'], dtype=complex)",
         )}, passes={"channels": (
             "def f(sigma0): return psd_eigh(sigma0, 'sigma0')",
             "def f(sigma): return finite_array(sigma, 'sigma')",
             "def f(a): return np.array([a.chi0, a.chi1], dtype=complex)",
             "def f(kets): return np.array(kets)",
             "def f(m): return np.asarray(m, dtype=float)",
             "def f(): return np.eye(2, dtype=complex)",
             "np.linalg.eigvalsh(m)",
             "def f(a): return np.array(b, dtype=complex)",
         )}),
    # the constants of the paper's run are built once, in one grid and one
    # channel; a cache per module, or one keyed on a caller's arguments,
    # would hand every caller one shared result to check
    Rule("cache-decorator", cache_decorator, MODULES, (
        Exempt("bounds", "_rectilinear_grid", "the one rectilinear grid", "@functools.cache"),
        Exempt("channels", "pauli_mixture_channel", "the one shared Pauli-mixture channel",
               "@functools.cache"),
    ), flags={"bounds": (
        # the retired per-module caches, as they were
        "@functools.cache\ndef _rectilinear_sets(): pass",
        "@functools.cache\ndef _mixed_support(): pass",
        "@functools.cache\ndef _rectilinear_singles(): pass",
        "@functools.lru_cache(maxsize=None)\ndef _rectilinear_grid(): pass",
        "@cache\ndef _rectilinear_grid(): pass",
        "class Run:\n    @functools.cached_property\n    def bounds(self): pass",
    ), "interferometer": (
        "@functools.cache\ndef _rectilinear_grid(): pass",
        "@functools.cache\ndef pauli_mixture_channel(): pass",
    )}, passes={"bounds": (
        "@functools.cache\ndef _rectilinear_grid(): pass",
        "@functools.wraps(f)\ndef g(): pass",
        "def cache(): pass",
        "@staticmethod\ndef f(): pass",
    ), "channels": ("@functools.cache\ndef pauli_mixture_channel(): pass",)}),
    # bounds._filter_kets is the one filter-dimension check; a filter pair
    # checks that its own two kets agree
    Rule("filter-dimension", filter_dimension, MODULES, (
        Exempt("bounds", "_filter_kets", "the one filter-dimension check"),
        Exempt("bounds", "FilterPair.__post_init__", "the two kets of one pair agree"),
    ), flags={"bounds": (
        # the retired checks of fractional_visibility, verify_alpha_constraint,
        # _complete_basis_check and interferometer._filter_kets, as they were
        "if filt.chi0.size != d: pass",
        "if filters[nu].chi0.size != d: pass",
        "ok = any(f.chi0.size != d for f in filts)", "ok = chi0.size != d",
        "def _filter_kets(filt, d):\n    pass\nok = d == filt.chi1.size",
        "class FilterPair:\n    def check(self):\n        return self.chi0.size != self.chi1.size",
    ), "interferometer": ("def _filter_kets(filt, d):\n    return filt.chi0.size != d",)},
         passes={"bounds": (
             "chi0, chi1 = _filter_kets(filt, d)", "d = filts[0].chi0.size",
             "ok = psi0.size != d", "ok = filt.chi0.dtype != dtype",
             "def _filter_kets(filt, d):\n    return filt.chi0.size != d",
             "class FilterPair:\n    def __post_init__(self):\n"
             "        ok = self.chi0.size != self.chi1.size",
         )}),
    # every random stream comes from linalg._generators, which builds each
    # generator in the state default_rng gives the seed tuple
    Rule("one-generator", generator_call, MODULES, (
        Exempt("linalg", "_generators", "the one constructor of the package's generators"),
    ), flags={"interferometer": (
        # the retired constructors of _count_cells and binomial_resample, as they were
        "def _count_cells(seeds):\n    for seed in seeds:\n        rng = np.random.default_rng(seed)",
        "counts = np.random.default_rng(_seed_tuple(seed)).binomial(ds.counts, ratios)",
        "from numpy.random import default_rng\nrng = default_rng(seed)",
        "rng = numpy.random.default_rng([seed, 1])", "n = np.random.binomial(10, 0.5)",
        "bits = np.random.PCG64(seed)",
        "def _generators(seed):\n    return np.random.default_rng(seed)",
        # the forms _generators now builds its generators with
        "pool = np.random.SeedSequence(words).pool",
        "bits = np.random.PCG64(words)", "rng = np.random.Generator(bits)",
        "def _draw(row):\n    return np.random.PCG64(_StateWords(row))",
    ), "linalg": (
        "def _seed_pool(words):\n    return np.random.SeedSequence(words).pool",
        "def _bits(words):\n    return np.random.PCG64(words)",
    ), "channels": ("def random_path_channel(seed):\n    rng = np.random.default_rng(seed)",)},
         passes={"interferometer": (
             "(rng,) = _generators(seed)", "rngs = _generators(seed, (4, 4))",
             "out = rng.multinomial(shots, table)", "rng.binomial(out, thin)",
             "x = np.random", "np.linalg.inv(m)",
         ), "linalg": (
             "def _generators(seed):\n    return np.random.default_rng(seed)",
             "def _generators(seed):\n    pool = np.random.SeedSequence(words).pool",
             "def _generators(seed):\n    bits = np.random.PCG64(words)",
             "def _generators(seed):\n"
             "    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]",
             "def _generators(seed):\n"
             "    class _StateWords(np.random.bit_generator.ISeedSequence):\n"
             "        def generate_state(self, n_words, dtype=np.uint32):\n"
             "            return self.words",
         )}),
    # a set on the rectilinear grid takes its slack from the diagonal of
    # U-hat^dag U-hat, which the grid checks once is exactly diagonal; only
    # the explicit and mixed sets run the eigensolver, in bounds._slack
    Rule("one-slack-eigensolver", eigvalsh_call, ("bounds",), (
        Exempt("bounds", "_slack", "the slack of an explicit or mixed set"),
    ), flags={"bounds": (
        "def swap_certificate(records):\n    slack = _eigvalsh(h)[-1] - 1.0",
        "def certify_run(records):\n    slacks = _eigvalsh(h).T[-1] - 1.0",
        "def _grid_slack(u_hat):\n    return _eigvalsh(u_hat.conj().mT @ u_hat).T[-1] - 1.0",
        "def certify_run(records):\n    slacks = linalg._eigvalsh(h).T[-1] - 1.0",
        "def swap_certificate(records):\n    slack = np.linalg.eigvalsh(h)[-1] - 1.0",
        "from numpy.linalg import eigvalsh\nw = eigvalsh(h)",
    )}, passes={"bounds": (
        "def _slack(u_hat):\n    return _eigvalsh(u_hat.conj().mT @ u_hat).T[-1] - 1.0",
        "def _grid_slack(u_hat):\n"
        "    return (u_hat.conj().mT @ u_hat).diagonal(axis1=-2, axis2=-1).real.max(axis=-1)",
        "w, v = psd_eigh(m, 'rho')", "s = _singular_values(m)",
    )}),
    # every spectrum of an array the package formed comes from the one
    # binding to numpy's LAPACK gufuncs in linalg (_eigvalsh,
    # _singular_values); the public wrappers stay for arrays read from
    # outside, in linalg (trace_norm)
    Rule("one-spectrum-binding", lapack_spectrum, tuple(m for m in MODULES if m != "linalg"), (),
         flags={"duality": (
             # the retired calls of _trace_distance and of trace_norm's SVD
             "def _trace_distance(m0, m1):\n    return np.linalg.eigvalsh(m0 - m1)",
             "s = np.linalg.svd(m, compute_uv=False)", "s = numpy.linalg.svdvals(m)",
             "from numpy.linalg import _umath_linalg",
             "from numpy.linalg._umath_linalg import svd",
             "import numpy.linalg._umath_linalg as lapack",
             "w = np.linalg._umath_linalg.eigvalsh_lo(h, signature='D->d')",
             "lapack = getattr(np.linalg, '_umath_linalg')",
         ), "channels": (
             "err = np.abs(np.linalg.eigvalsh(grams.sum(axis=0) - eye))",
         ), "bounds": (
             "def _slack(u_hat):\n    return np.linalg.eigvalsh(u_hat.conj().mT @ u_hat)",
         )}, passes={"duality": (
             "w = _eigvalsh(m0 - m1)", "s = _singular_values(m)",
             "t = np.linalg.qr(x, mode='r')", "u, s, vh = np.linalg.svd(g, full_matrices=False)",
             "s = np.linalg.svd(m, compute_uv=True)", "n = trace_norm(m)",
             "w, v = psd_eigh(m, 'rho')", "umath = 1",
         ), "channels": ("err = np.abs(_eigvalsh(grams.sum(axis=0) - eye))",)}),
    # a run's bounds come from bounds.certify_run; the CLI only prints them
    Rule("cli-certification-policy", certification_policy, ("cli",), (), flags={"cli": (
        "bnd.swap_certificate(records)", "single_preparation_certificate(mu, records)",
        "pairs = bnd.COMPLEMENTARY", "for pair in COMPLEMENTARY_PAIRS: pass",
    )}, passes={"cli": ("bnd.certify_run(records)", "print(bnd.certificate_report(cert))")}),
    Rule("cli-private-names", private_name, ("cli",), (), flags={"cli": (
        "bnd._record_map(records)", "from .bounds import _record_map",
        "from whichway.interferometer import _phase_tuple", "itf._phase_tuple(phases)",
    )}, passes={"cli": (
        "from ._files import write_text", "bnd.certify_run(records)", "sys._getframe()",
    )}),
)


def _planted(kind: str) -> list:
    return [pytest.param(rule, module, source, id=f"{rule.name}-{source}")
            for rule in RULES for module, sources in getattr(rule, kind).items()
            for source in sources]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_the_package_obeys_the_rule(rule):
    offenders = [f"src/whichway/{m}.py:{line}: {what}"
                 for m in rule.modules for line, what in rule.offenders(m, NODES[m])]
    assert offenders == []


@pytest.mark.parametrize("rule, module, source", _planted("flags"))
def test_planted_flag(rule, module, source):
    lines = [line for line, _ in rule.offenders(module, walk(module, ast.parse(source)))]
    assert lines == [source.count("\n") + 1]


@pytest.mark.parametrize("rule, module, source", _planted("passes"))
def test_planted_pass(rule, module, source):
    assert rule.offenders(module, walk(module, ast.parse(source))) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_every_exemption_suppresses_a_node_of_the_package(rule):
    for e in rule.exempt:
        ns = namespace(e.module)
        assert e.module in rule.modules and e.reason
        assert any(e.covers(e.module, qualname, what) for _, qualname, node in NODES[e.module]
                   if (what := rule.offence(node, ns))), e


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_every_rule_plants_a_flag_and_a_pass(rule):
    assert any(rule.flags.values()) and any(rule.passes.values())


def test_cli_calls_certify_run():
    assert any(isinstance(node, ast.Call) and _name(node.func) == "certify_run"
               for _, _, node in NODES["cli"])


def test_trace_targets_resolve():
    # TARGETS of bench/tracing.py, read with ast: nothing under bench/ is
    # imported or written
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next((ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and [_name(t) for t in node.targets] == [
                        "TARGETS"]), None)
    assert targets is not None, "bench/tracing.py defines no TARGETS"
    assert sum(map(len, targets.values())) == 21
    for layer, names in targets.items():
        module = importlib.import_module(f"whichway.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"whichway.{layer}.{name}"


def test_package_exports_resolve_and_come_from_each_modules_all():
    # a name removed from a module cannot linger in its __all__ or in the
    # package namespace
    import whichway

    modules = ("linalg", "channels", "duality", "bounds", "interferometer")
    exported = {}
    for layer in modules:
        module = importlib.import_module(f"whichway.{layer}")
        exported[layer] = set(module.__all__)
        assert len(module.__all__) == len(exported[layer]), f"whichway.{layer}.__all__"
        for name in module.__all__:
            assert hasattr(module, name), f"whichway.{layer}.{name}"

    imported = [(node.module, alias.name) for node in TREES["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert {layer for layer, _ in imported} == {*modules, "errors"}
    stale = [f"{layer}.{name}" for layer, name in imported
             if layer in exported and name not in exported[layer]]
    assert stale == []
    assert all(hasattr(whichway, name) for _, name in imported)
    assert not hasattr(whichway, "SpinState")


def _arrays(value):
    """Every ndarray reachable from ``value`` through tuples, lists,
    mappings (keys and values) and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Mapping):
        for item in value.items():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def test_cached_constants_hold_only_read_only_arrays():
    # a module-level array and a functools.cache result are shared by every
    # caller, so an array among them that could be written would change
    # every later result
    found = {f"{m}.{name}": list(_arrays(value)) for m in MODULES
             for name, value in namespace(m).items() if not name.startswith("__")}
    found = {name: arrays for name, arrays in found.items() if arrays}
    assert {"channels.PAULI_X", "interferometer._FRAME", "interferometer._PAULI"} <= set(found)
    assert not [name for name, arrays in found.items() if any(a.flags.writeable for a in arrays)]
    cached = {f"{m}.{name}": fn for m in MODULES for name, fn in namespace(m).items()
              if hasattr(fn, "cache_info") and fn.__module__ == f"whichway.{m}"}
    constant = {name: fn for name, fn in cached.items()
                if not inspect.signature(fn).parameters}
    assert {"bounds._rectilinear_grid", "channels.pauli_mixture_channel"} <= set(constant)
    for name, fn in constant.items():
        arrays = list(_arrays(fn()))
        assert arrays, name
        assert not [a.shape for a in arrays if a.flags.writeable], name
    box = dataclasses.make_dataclass("Box", ["m"])(np.zeros(1))
    planted = ({"k": [np.zeros(2)]}, types.MappingProxyType({("a",): (box,)}))
    assert [a.shape for a in _arrays(planted)] == [(2,), (1,)]
