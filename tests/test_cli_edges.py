"""Every numeric option of the CLI at the edges of the floats.

Each subcommand runs in process through ``cli.main``, seeded and with few
trials, once for each option at each edge value.  An input the program
cannot handle must end in a usage error (exit 2) or a solver error record
(exit 3) that names the option or the z, never in an exception or a
warning; a verdict may fail (exit 1) with its report on stdout.
"""

from __future__ import annotations

import json
import re
import warnings

import pytest

from weylsys import cli

EDGES = ("0", "-0", "1e-320", "5e-324", "5.6e-309", "1e-300", "1e-16", "0.5", "2", "-1",
         "1e300", "1.7e308", "inf", "-inf", "nan")

BASES = {
    "m-eval": ["m-eval", "--mode", "numeric", "--z", "i,-1"],
    "classify": ["classify", "--mode", "numeric", "--trials", "2", "--seed", "1"],
    "verify": ["verify", "--suite", "example", "--trials", "2", "--seed", "1"],
}

# each option, with the names a message about its value may use
OPTIONS = {
    "m-eval": {"--tol": "tol", "--ell": "ell", "--alpha": "alpha", "--z": "z",
               "nu": "nu|potential"},
    "classify": {"--tol": "tol", "--ell": "ell", "--alpha": "alpha", "--beta": "beta",
                 "--mu": "mu", "--h": "h", "nu": "nu|potential", "--seed": "seed",
                 "--trials": "trials"},
    "verify": {"--tol": "tol", "--seed": "seed", "--trials": "trials"},
}


def _argv(command: str, option: str, value: str) -> list[str]:
    """The subcommand's base arguments with option set to value (nu through bessel:NU)."""
    base = list(BASES[command])
    if option == "nu":
        return base + ["--potential", f"bessel:{value}"]
    if option in base:
        i = base.index(option)
        del base[i:i + 2]
    return base + [f"{option}={value}"]


@pytest.mark.parametrize("command, option", [(c, o) for c, opts in OPTIONS.items()
                                             for o in opts])
def test_each_option_at_the_float_edges_exits_cleanly(capsys, command, option):
    names = re.compile(rf"\b({OPTIONS[command][option]})\b")
    for value in EDGES:
        argv = _argv(command, option, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert out == "" and names.search(err), (argv, err)
            continue
        assert err == "", (argv, err)
        doc = json.loads(out)
        if code == 3:
            assert names.search(doc["error"]["message"]), (argv, doc)
        elif code == 1:
            assert doc["pass"] is False, argv
