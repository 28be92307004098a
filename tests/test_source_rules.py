import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycletransfer"


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
