"""Each shared numerical piece has one owner in ``src/ad1n``: the
condition-number guard of the normal-equation blocks lives in
``ad1n.model`` (``symmetric_cond`` and ``COND_LIMIT``), the
augmented-block integrals of the one-step map are called only inside
``ad1n._matfun`` (``step_integrals``), the tau layout is written only by
``model.stack_drift_fields`` and read only by ``model.unstack_tau``, and
the moment key order is spelled out only by ``moments._index_set``, and
the admission check runs only inside ``ad1n.model``, where the
``ModelParams`` constructor calls ``validate``, no module imports scipy,
a process is forked only by ``harness._in_child``, a memfd is made only by
``harness._path_phase``, a ``Classification`` is built only by
``model.classify``, and the |b| h bound of the one-step coefficients
(``_matfun.SMALL_BH``) and their b -> 0 form ``_matfun.phi1`` are read
only in ``ad1n._matfun``, and ``numpy.polynomial`` and its
Gauss-Legendre nodes are reached only by ``_matfun.step_integrals``, and
theta's eigenbasis is computed (``model._try_real_eig``) only by
``model.validate`` and ``model.classify``, whose ``Classification``
carries it, and the eight moments of the sandwich are read off
``moments.stationary_moment_table`` with no solve of their own.  A second
copy fails here."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ad1n"

#: an assignment to a name ending in COND_LIMIT, annotated or not
_COND_LIMIT_ASSIGNMENT = re.compile(r"^\s*\w*COND_LIMIT\s*(:[^=\n]*)?=(?!=)", re.M)


def _sources():
    files = sorted(SRC.glob("*.py"))
    assert files
    return {f.name: f.read_text(encoding="utf-8") for f in files}


def test_condition_guard_lives_in_model():
    sources = _sources()
    for name, text in sources.items():
        if name != "model.py":
            assert "np.linalg.cond(" not in text, name
            assert not _COND_LIMIT_ASSIGNMENT.search(text), name
    assert len(_COND_LIMIT_ASSIGNMENT.findall(sources["model.py"])) == 1


def test_step_integrals_live_in_matfun():
    for name, text in _sources().items():
        if name != "_matfun.py":
            assert "expm_integral(" not in text, name


#: a hand-written offset of the j-th X block of tau, j * (n + 2) or (n + 2) * j
_TAU_OFFSET = re.compile(r"\*\s*\(\s*n\s*\+\s*2\s*\)|\(\s*n\s*\+\s*2\s*\)\s*\*")


def test_tau_layout_lives_in_stack_drift_fields():
    # the per-block layout of tau is a reshape of the rows of [m | kappa |
    # theta]; a loop over block offsets, or a tiled per-block pattern, is
    # a second copy of it
    for name, text in _sources().items():
        assert not _TAU_OFFSET.search(text), name
        assert "np.tile(" not in text, name


def _calls_to(tree, callee):
    return {id(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == callee}


def test_moment_key_order_lives_in_index_set():
    # _index_set owns the order in which moments are visited (s = |l|, then
    # k, then _multi_indices); every other loop over keys iterates it
    for name, text in _sources().items():
        tree = ast.parse(text)
        owned = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in ("_index_set", "_multi_indices"):
                owned |= _calls_to(fn, "_multi_indices")
        assert _calls_to(tree, "_multi_indices") <= owned, name


def _calls_model_validate(node):
    # validate(...) or model.validate(...); ExperimentConfig.validate, a
    # method called on a config, is a different function
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "validate") or (
        isinstance(f, ast.Attribute) and f.attr == "validate"
        and isinstance(f.value, ast.Name) and f.value.id == "model")


def test_admission_check_lives_in_model():
    # every ModelParams is admissible, so a second check is dead code and a
    # report object that a caller may forget to read is a second owner
    for name, text in _sources().items():
        assert "ValidationReport" not in text, name
        assert ".violations" not in text, name
        if name != "model.py":
            assert not any(_calls_model_validate(n) for n in ast.walk(ast.parse(text))), name


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def test_no_module_imports_scipy():
    # every matrix function is numpy's (_matfun), and scipy is a test
    # dependency only; an import of it would load it into every run
    for name, text in _sources().items():
        assert not any(_imports_scipy(node) for node in ast.walk(ast.parse(text))), name


def _calls(module, name):
    """Whether a node calls module.name(...), or name(...) after
    "from module import name"."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (isinstance(f, ast.Name) and f.id == name) or (
            isinstance(f, ast.Attribute) and f.attr == name
            and isinstance(f.value, ast.Name) and f.value.id == module)
    return match


def _in_function(tree, function, match):
    """The ids of the ``match`` nodes inside ``function`` in ``tree``."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == function
            for node in ast.walk(fn) if match(node)}


def _assert_only_in(module, function, calls):
    """``calls`` nodes appear once, in ``<module>.<function>``, and nowhere else."""
    for name, text in _sources().items():
        tree = ast.parse(text)
        owned = set()
        if name == module + ".py":
            owned = _in_function(tree, function, calls)
            assert len(owned) == 1
        assert {id(node) for node in ast.walk(tree) if calls(node)} <= owned, name


def test_fork_lives_in_one_helper():
    # harness._in_child reaps its child, kills it when the caller raises and
    # never lets it return into the caller's frames; a second fork would
    # have to get all three right again
    _assert_only_in("harness", "_in_child", _calls("os", "fork"))


def test_memfd_lives_in_the_path_phase():
    # harness._path_phase checks every write into and read out of a round's
    # memfd and closes it whether the round returns or raises; a second
    # memfd would have to get both right again
    _assert_only_in("harness", "_path_phase", _calls("os", "memfd_create"))


def test_classification_is_built_only_by_classify():
    # classify reads the regime off one trichotomy of theta's spectrum; a
    # Classification built elsewhere would carry a regime of its own rule
    _assert_only_in("model", "classify", _calls("model", "Classification"))


def _reads_small_bh_rule(node):
    return (isinstance(node, ast.Name) and node.id in ("SMALL_BH", "phi1")) or (
        isinstance(node, ast.Attribute) and node.attr in ("SMALL_BH", "phi1"))


def test_small_bh_rule_is_read_only_in_matfun():
    # a~, the CIR scale c (a~ at sigma1^2 / 4) and W switch to their phi1
    # forms at one |b| h; a reader elsewhere would be a second switch that
    # can disagree
    for name, text in _sources().items():
        reads = [node for node in ast.walk(ast.parse(text)) if _reads_small_bh_rule(node)]
        if name == "_matfun.py":
            assert reads
        else:
            assert not reads, name


def _reaches_gauss_legendre(node):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        names += [alias.name for alias in node.names]
        return any("polynomial" in name or name == "leggauss" for name in names)
    return (isinstance(node, ast.Name) and node.id == "leggauss") or (
        isinstance(node, ast.Attribute) and node.attr in ("polynomial", "leggauss"))


def test_gauss_legendre_nodes_live_in_step_integrals():
    # importing numpy.polynomial costs a fresh process ~4-5 ms; only a W at
    # |b| h <= SMALL_BH with kappa != 0 needs its nodes, and step_integrals
    # builds W only then
    for name, text in _sources().items():
        tree = ast.parse(text)
        reads = {id(node) for node in ast.walk(tree) if _reaches_gauss_legendre(node)}
        owned = set()
        if name == "_matfun.py":
            owned = _in_function(tree, "step_integrals", _reaches_gauss_legendre)
            assert owned
        assert reads <= owned, name


def test_theta_eigenbasis_is_computed_only_by_validate_and_classify():
    # classify hands P and the eigenvalues to every reader in its
    # Classification; a second eigendecomposition would be a basis that a
    # change to _try_real_eig's checks or fallback could leave behind
    calls = _calls("model", "_try_real_eig")
    for name, text in _sources().items():
        tree = ast.parse(text)
        owned = set()
        if name == "model.py":
            owned = _in_function(tree, "validate", calls) | _in_function(tree, "classify", calls)
            assert len(owned) == 2
        assert {id(node) for node in ast.walk(tree) if calls(node)} <= owned, name


def _solves(node):
    return isinstance(node, ast.Attribute) and node.attr in ("linalg", "kron")


def test_stationary_x_moments_reads_the_moment_table():
    # the sandwich's moments are entries of the order-3 table; equations of
    # their own would be a second derivation to keep in step with generator
    tree = ast.parse(_sources()["moments.py"])
    assert _in_function(tree, "stationary_x_moments",
                        _calls("moments", "stationary_moment_table"))
    assert not _in_function(tree, "stationary_x_moments", _solves)
