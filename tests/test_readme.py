"""The examples in README.md, run and compared with what the README shows.

Python blocks: every line ``EXPR  # VALUE ...`` or ``print(EXPR)  # VALUE
...`` must give VALUE to the digits printed. Shell blocks: every ``$ ``
command is run (``skewdisc ...`` through cli.main, ``cat FILE`` by reading
the file) and its output must equal the lines that follow it, line for
line. A command's config file is the JSON block of the same README
section, written under the name the command gives it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from skewdisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
# The value a comment starts with: a bracketed array or one token.
VALUE = re.compile(r"#\s*(\[[^\]]*\]|[^\s,]+)")


def sections():
    """{heading: [(language, text), ...]} for every fenced block."""
    text = README.read_text(encoding="utf-8")
    heads = [(m.start(), m.group(1)) for m in re.finditer(r"^#+ (.+)$", text, re.M)]
    found = {}
    for m in FENCE.finditer(text):
        head = [h for start, h in heads if start < m.start()][-1]
        found.setdefault(head, []).append((m.group(1), m.group(2)))
    return found


def blocks(language):
    return [(head, text) for head, found in sections().items()
            for lang, text in found if lang == language]


def assert_printed(value, shown):
    """value, rounded to the decimals shown, equals the shown text."""
    if shown in ("True", "False"):
        assert str(value) == shown
        return
    tokens = shown.strip("[]").split()
    got = np.atleast_1d(np.asarray(value, dtype=float))
    assert got.shape == (len(tokens),), (value, shown)
    for g, token in zip(got, tokens):
        decimals = len(token.partition(".")[2])
        assert round(float(g), decimals) == float(token), (value, shown)


def test_python_examples():
    checked = 0
    scope = {}
    for _, text in blocks("python"):
        pending = []
        for line in text.splitlines():
            code, _, _ = line.partition("#")
            shown = VALUE.search(line)
            if shown is None or not code.strip():
                pending.append(line)
                continue
            exec("\n".join(pending), scope)
            pending = []
            expr = code.strip()
            if expr.startswith("print(") and expr.endswith(")"):
                expr = expr[len("print("):-1]
            assert_printed(eval(expr, scope), shown.group(1))
            checked += 1
        exec("\n".join(pending), scope)
    assert checked == 6


def run_shell(text, tmp_path, configs):
    """(command, printed lines, expected lines) for every '$ ' command."""
    out = []
    for line in text.splitlines():
        if line.startswith("$ "):
            out.append((line[2:], []))
        else:
            out[-1][1].append(line)
    for command, expected in out:
        argv = shlex.split(command)
        if argv[0] == "cat":
            printed = (tmp_path / argv[1]).read_text(encoding="utf-8")
        else:
            assert argv[0] == "skewdisc"
            argv = argv[1:]
            if argv[0].startswith("simulate-"):
                (tmp_path / argv[1]).write_text(configs.pop(), encoding="utf-8")
                argv[1:3] = [str(tmp_path / name) for name in argv[1:3]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            printed = buf.getvalue().replace(str(tmp_path) + "/", "")
        yield command, printed.splitlines(), expected


SHELL_SECTIONS = ("constants", "simulate-chat", "simulate-msi")


@pytest.mark.parametrize("heading", SHELL_SECTIONS)
def test_shell_examples(heading, tmp_path):
    found = sections()[heading]
    configs = [text for lang, text in found if lang == "json"]
    runs = 0
    for lang, text in found:
        if lang == "sh" and text.startswith("$ "):
            for command, printed, expected in run_shell(text, tmp_path, configs):
                assert printed == expected, command
                runs += 1
    assert runs >= 1
