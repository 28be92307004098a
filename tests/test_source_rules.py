import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycletransfer"


def test_package_has_no_assert_statements():
    # assert vanishes under python -O, so runtime checks must raise.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The CLI's exit code comes from the error family, so every raise names
# one. The base CycleTransferError has no exit code of its own.
FAMILY_ERRORS = {"UsageError", "DataError", "ConstantSeriesError", "SeasonalityNotFoundError"}
# Raises outside the families, each on purpose: the channel-name prefix
# raises the settled error's own class, and a missing channel is a
# KeyError, as for a mapping.
ALLOWED_RAISES = {("transfer.py", "type(exc)"), ("tableio.py", "KeyError")}


def test_package_raises_only_family_errors():
    sources = sorted(PACKAGE.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what was caught
            raised = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if raised not in FAMILY_ERRORS and (path.name, raised) not in ALLOWED_RAISES:
                found.append(f"{path.name}:{node.lineno} raises {raised}")
    assert found == []


# Raw arrays are checked once, where they enter the pipeline; the stages
# take the arrays the pipeline built. (file, function) pairs allowed to
# call as_series:
AS_SERIES_CALLERS = {("transfer.py", "transfer_channel")}


def _callers(tree, name):
    """(enclosing function, line) of every call to ``name`` in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_as_series_called_only_at_the_boundary():
    sources = sorted(PACKAGE.glob("*.py"))
    calls = [
        (path.name, function, line)
        for path in sources
        for function, line in _callers(ast.parse(path.read_text(encoding="utf-8"), str(path)), "as_series")
    ]
    assert {(name, function) for name, function, _ in calls} == AS_SERIES_CALLERS, calls


def test_package_never_asks_json_for_an_indent():
    # indent makes json run its pure-Python encoder over every float; the
    # report lays out its indent itself and encodes through the C encoder.
    sources = sorted(PACKAGE.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call) and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert found == []


def test_transfer_settles_errors_as_values_in_one_function():
    # transfer_table, analyze_table and transfer_channel share one outcome
    # rule per channel, _settle, which takes the channel's first error as a
    # value: a constant series or a sequence without periods becomes a
    # skip, any other error is raised. transfer.py never raises an error in
    # order to catch it.
    tree = ast.parse((PACKAGE / "transfer.py").read_text(encoding="utf-8"))
    try_nodes = (ast.Try, getattr(ast, "TryStar", ast.Try))  # TryStar from Python 3.11
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, try_nodes)] == []
    # Every skip is built where STATUS_SKIPPED is named, so _settle alone
    # names it.
    builders = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Name) and node.id == "STATUS_SKIPPED" for node in ast.walk(function))
    ]
    assert builders == ["_settle"], builders


# Each series check is worded once, in the one-series form that returns its
# error (series.length_error, range_error, radius_error) or, for the plain
# ramp, in the side step; every other caller records or raises that error.
# So is each table content rule: the channel names (tableio.names_error: a
# blank name, a NUL, a duplicate) and finite values (series.finite_error),
# which PoseTable, the CSV header check and as_series share.
CHECK_MESSAGES = [
    "series has ", "series range ", "must be below the series length", "plain ramp",
    " is blank", " holds a NUL character", "duplicate channel name ", "NaN or infinity",
]


def test_each_series_check_message_is_worded_once():
    sources = sorted(PACKAGE.glob("*.py"))
    counts = {
        message: sum(path.read_text(encoding="utf-8").count(message) for path in sources)
        for message in CHECK_MESSAGES
    }
    assert counts == dict.fromkeys(CHECK_MESSAGES, 1)


# Trend fits are inner products taken with np.sum (numpy's pairwise sum), so
# the output bits do not depend on the BLAS library or its thread count.
BLAS_NAMES = {"lstsq", "polyfit", "polyvander", "linalg", "dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def test_package_calls_no_blas():
    sources = sorted(PACKAGE.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} uses {name}")
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append(f"{path.name}:{node.lineno} uses @")
    assert found == []


# A public package function is kept for a caller outside the other tests:
# package code calls or imports it, the acceptance oracles import it, or the
# benchmark's tracer (bench/tracing.py) looks it up by its quoted name. One
# that only those tests call is a second form of a rule the package runs in
# another form, which the tests can call instead. Attribute names do not
# count: SequenceDiagnostics.fisher_g is a field, not a call.
def test_every_public_function_has_a_caller_besides_the_tests():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id != own:
                    used.add(node.func.id)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used.update(alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names)
    tracer = (ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used
        and f'"{node.name}"' not in tracer
    ]
    assert unused == []


# A private package function is kept for the package itself: package code
# outside its own body refers to it by name. One that only the tests refer
# to is a second form of a rule, kept for them; one that nothing refers to
# is dead.
def test_every_private_function_has_a_package_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            used.update(node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id != own)
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []
