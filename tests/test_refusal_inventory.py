"""Every refusal in src/cfakit is reached by a table row.

A refusal is a call of ValidationError, DomainError or DataAccessError,
raised or returned.  Its literal parts are the string constants of its
message, each stripped of spaces and :;,'"(), those under 4 characters
dropped.  The refusal is tabled when the message of one row holds all of
them: a row of MALFORMED, UNREADABLE_OR_OUT_OF_DOMAIN or UNENCODABLE in
tests/test_cli.py, which run a command, or of LIBRARY_REFUSALS or
LIBRARY_DOMAIN_ERRORS in tests/test_library_refusals.py, which make a
library call.  A refusal with no part left passes another one's text
on, such as the command line's ValidationError(message) for argparse's
usage errors, and needs no row of its own.

The check matches texts, not call sites: a refusal whose text a row made
for another call already holds passes without ever being run, so a new
refusal that shares a text needs a row of its own all the same.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cfakit
import test_cli
import test_library_refusals

ERRORS = ("ValidationError", "DomainError", "DataAccessError")
TABLES = (test_cli.MALFORMED, test_cli.UNREADABLE_OR_OUT_OF_DOMAIN, test_cli.UNENCODABLE,
          test_library_refusals.LIBRARY_REFUSALS, test_library_refusals.LIBRARY_DOMAIN_ERRORS)


def _literal_parts(message: ast.expr) -> list[str]:
    if isinstance(message, ast.JoinedStr):  # an f-string's text between its fields
        return [v.value for v in message.values if isinstance(v, ast.Constant)]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return [message.value]
    return []


def test_every_refusal_text_is_reached_by_a_table_row():
    messages = [row[-1] for table in TABLES for row in table]
    untabled = []
    for path in sorted(Path(cfakit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ERRORS):
                continue
            parts = [text.strip(" :;,'\"()") for arg in node.args for text in _literal_parts(arg)]
            parts = [part for part in parts if len(part) >= 4]
            if parts and not any(all(part in message for part in parts) for message in messages):
                untabled.append(f"{path.name}:{node.lineno}: {node.func.id} {parts}")
    assert untabled == []
