"""Grammar fuzz: the CLI and the JSON readers on generated input, with a fixed example budget.

Every command line drawn from a grammar of every flag ends in exit 0, 1 or 2,
with nothing on stdout and a message on stderr after a usage error and
nothing on stderr after success; every generated JSON value either reads back or raises ValueError.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qteleport.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, TOL_ENV_VAR, main
from qteleport.serialize import density_from_json, ket_from_json, matrix_from_json

FUZZ_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

NUMBERS = ("0", "1", "-1", "0.6", "0.8", "-0.8", "1e-9", "1e-320", "1e308", "-1e308", "nan", "inf", "-inf")
COMPLEX = NUMBERS + ("0.8i", "-0.8j", "0.6+0.8i", "0.6-0.8i", "1+1i", "nan+1i", "1e308+1e308i", "2 i")
FLAG_VALUES = {
    "--alpha": COMPLEX,
    "--beta": COMPLEX,
    "--alpha-re": NUMBERS,
    "--alpha-im": NUMBERS,
    "--beta-re": NUMBERS,
    "--beta-im": NUMBERS,
    "--resource-index": ("0", "1", "2", "3", "4", "5", "-1", "1.0"),
    "--mode": ("ensemble", "single-shot", "single_shot"),
    "--seed": ("0", "1", "7", "-1", "2147483647", "99999999999999999999", "1.5"),
    # a small --count keeps each verify run short
    "--count": ("0", "1", "2", "3", "-1", "1.5"),
    "--output": ("text", "json", "xml"),
    "--tol": ("1e-9", "1e-6", "0.5", "1", "1e300", "0", "-1e-9", "nan", "inf", "1e-320"),
}
JUNK = ("", "x", "--")
SWITCHES = ("--renormalize", "--inject-corruption", "--help", "--unknown")
STATES = (("--alpha", "0.6", "--beta", "0.8i"), ("--alpha", "1"), ("--beta-im", "-1"),
          ("--alpha-re", "0.6", "--beta", "-0.8"))
_STATE_FLAGS = ("--alpha", "--beta", "--alpha-re", "--alpha-im", "--beta-re", "--beta-im", "--renormalize")
_COMMON_FLAGS = ("--output", "--tol")
# each command's own flags; a line draws from these and from every flag and switch
COMMAND_FLAGS = {
    "teleport": _STATE_FLAGS + ("--resource-index", "--mode", "--seed") + _COMMON_FLAGS,
    "swap-compare": _STATE_FLAGS + _COMMON_FLAGS,
    "verify": ("--count", "--seed", "--inject-corruption") + _COMMON_FLAGS,
    "dump-tables": _COMMON_FLAGS,
    "teleprt": (),
    "": (),
}

# Most state lines start from a unit-norm state, so that they often reach the command itself; every verify
# line starts with a small --count, since the default sweep of 1,000 states takes a quarter of a second.
PREFIXES = {
    "teleport": st.sampled_from(STATES + ((),)),
    "swap-compare": st.sampled_from(STATES + ((),)),
    "verify": st.sampled_from((("--count", "1"), ("--count", "3"), ("--count", "2", "--inject-corruption"))),
}


def _tokens(flag: str) -> st.SearchStrategy[list[str]]:
    if flag not in FLAG_VALUES:
        return st.just([flag])
    # a value of the flag's own, a junk value, or none at the end of the line
    return st.sampled_from(FLAG_VALUES[flag] + JUNK + (None,)).map(lambda v: [flag] if v is None else [flag, v])


def _line(command: str) -> st.SearchStrategy[list[str]]:
    anything = st.one_of([_tokens(f) for f in (*FLAG_VALUES, *SWITCHES)])
    own = st.one_of([_tokens(f) for f in COMMAND_FLAGS[command]]) if COMMAND_FLAGS[command] else anything
    # a flag of the command's own about two times in three
    flags = st.lists(st.one_of(own, own, anything), max_size=4)
    return st.tuples(PREFIXES.get(command, st.just(())), flags).map(
        lambda t: [command, *t[0], *(token for f in t[1] for token in f)])


# the four commands twice each, and a misspelt and an empty one; each line's strategy is built once
ARGV = st.one_of([_line(c) for c in ("teleport", "swap-compare", "verify", "dump-tables") * 2 + ("teleprt", "")])
# QTELEPORT_TOL unset in about two lines of three
ENV_TOL = st.one_of(st.none(), st.none(), st.sampled_from(FLAG_VALUES["--tol"] + JUNK))


def run_main(argv: list[str], env_tol: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one main(argv), a usage exit from argparse included."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if env_tol is None else {TOL_ENV_VAR: env_tol}
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        if env_tol is None:
            os.environ.pop(TOL_ENV_VAR, None)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@FUZZ_SETTINGS
@given(ARGV, ENV_TOL)
def test_every_command_line_exits_by_the_contract(argv, env_tol):
    code, out, err = run_main(argv, env_tol)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == ""
        assert err != ""
    if code == EXIT_OK:
        assert err == ""


NUMBER = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 0.6, 0.8, 10**400, -(10**400)]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)
SCALAR = st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=3))
JSON_VALUE = st.recursive(
    SCALAR, lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=4,
)
PAIR = st.one_of(st.lists(NUMBER, min_size=2, max_size=2), JSON_VALUE)
KIND = st.one_of(st.sampled_from(["density", "ket", "matrix"]), JSON_VALUE)
# documents shaped like the format's: each key present or missing, each value well- or ill-formed
LOOSE_DOCUMENT = st.fixed_dictionaries({}, optional={
    "kind": KIND,
    "rows": st.one_of(st.integers(-1, 3), JSON_VALUE),
    "cols": st.one_of(st.integers(-1, 3), JSON_VALUE),
    "entries": st.one_of(st.lists(PAIR, max_size=4), JSON_VALUE),
    "amplitudes": st.one_of(st.lists(PAIR, max_size=3), JSON_VALUE),
})
# every key present and every entry a pair of numbers, the entry count matching rows x cols
SHAPED_DOCUMENT = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(lambda rc: st.fixed_dictionaries({
    "kind": KIND,
    "rows": st.just(rc[0]),
    "cols": st.just(rc[1]),
    "entries": st.lists(st.lists(NUMBER, min_size=2, max_size=2), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]),
    "amplitudes": st.lists(st.lists(NUMBER, min_size=2, max_size=2), max_size=3),
}))
READERS = st.sampled_from([matrix_from_json, density_from_json, ket_from_json])


@FUZZ_SETTINGS
@given(READERS, st.one_of(SHAPED_DOCUMENT, LOOSE_DOCUMENT, JSON_VALUE))
def test_every_json_value_reads_back_or_raises_value_error(reader, doc):
    # the value as a reader receives it from json.loads
    doc = json.loads(json.dumps(doc))
    try:
        reader(doc)
    except ValueError:
        event("ValueError")
    else:
        event("read back")
