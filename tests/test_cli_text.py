"""The CLI's help and usage-error text, byte for byte.

Building only the named command's parser must not change what any command
prints.  The texts are argparse's at an 80-column terminal.
"""

import re
from pathlib import Path

import pytest

from nosignal import audit, cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: stdout of ``nosignal [<command>] --help``, by command ("" for the top level).
HELP = {
    "": """\
usage: nosignal [-h] {audit,density,validate,calibrate} ...

Command-line interface: audit, density, validate, calibrate.

positional arguments:
  {audit,density,validate,calibrate}
    audit               run the no-signalling audit
    density             export interference density profiles
    validate            isometry-validate a circuit file
    calibrate           scan detector geometry for contrast

options:
  -h, --help            show this help message and exit
""",
    "audit": """\
usage: nosignal audit [-h] [--variant {shiekh-density,mach-zehnder}]
                      [--phi-sweep PHI_SWEEP] [--trials TRIALS] [--seed SEED]
                      [--format FORMAT] [--out OUT] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --variant {shiekh-density,mach-zehnder}
  --phi-sweep PHI_SWEEP
  --trials TRIALS
  --seed SEED           random seed (default 0)
  --format FORMAT       output format: json or csv
  --out OUT             output path (default: stdout)
  --config CONFIG       JSON config file; flags override
""",
    "density": """\
usage: nosignal density [-h] [--phi PHI] [--r-min R_MIN] [--r-max R_MAX]
                        [--points POINTS] [--separation SEPARATION]
                        [--halfwidth HALFWIDTH] [--format FORMAT] [--verify]
                        [--out OUT] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --phi PHI             0, pi, or radians (default: both)
  --r-min R_MIN
  --r-max R_MAX
  --points POINTS
  --separation SEPARATION
  --halfwidth HALFWIDTH
  --format FORMAT       output format: csv or json
  --verify              check normalization, echo window probabilities
  --out OUT             output path (default: stdout)
  --config CONFIG       JSON config file; flags override
""",
    "validate": """\
usage: nosignal validate [-h] --circuit CIRCUIT [--out OUT]

options:
  -h, --help         show this help message and exit
  --circuit CIRCUIT  path or bundled name
  --out OUT          output path (default: stdout)
""",
    "calibrate": """\
usage: nosignal calibrate [-h] [--r-min R_MIN] [--r-max R_MAX]
                          [--points POINTS] [--out OUT] [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --r-min R_MIN
  --r-max R_MAX
  --points POINTS
  --out OUT        output path (default: stdout)
  --config CONFIG  JSON config file; flags override
""",
}

#: stderr of each usage error, which exits 1 and writes nothing to stdout.
USAGE_ERRORS = {
    ("bogus",): (
        "error: argument command: invalid choice: 'bogus'"
        " (choose from 'audit', 'density', 'validate', 'calibrate')\n"
    ),
    ("audit", "--variant", "bogus"): (
        "error: argument --variant: invalid choice: 'bogus'"
        " (choose from 'shiekh-density', 'mach-zehnder')\n"
    ),
    (): "error: the following arguments are required: command\n",
}
# a leading -- changes none of them: "nosignal --" alone is bare "nosignal"
USAGE_ERRORS.update({("--", *argv): text for argv, text in list(USAGE_ERRORS.items())})


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "top-level")
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--help"] if command else ["--help"])
    assert exited.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP[command], "")


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda a: " ".join(a) or "no-command")
def test_usage_error_text_is_pinned(capsys, argv):
    assert cli.main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", USAGE_ERRORS[argv])


@pytest.mark.parametrize("command", [c for c in HELP if c])
def test_a_leading_double_dash_changes_no_help_text(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main(["--", command, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("command", [None, "audit"], ids=["every-command", "audit-only"])
def test_variant_choices_are_the_audit_variants(command):
    parser = cli.build_parser(command)
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    (variant,) = [a for a in commands.choices["audit"]._actions if a.dest == "variant"]
    assert tuple(variant.choices) == tuple(audit.VARIANTS)


def _readme_flags() -> dict[str, list[str]]:
    """The flags README's ``| command | flags |`` table lists, by command."""
    lines = README.read_text().splitlines()
    start = lines.index("| command | flags |") + 2  # past the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags = line.strip("|").split("|")
        table[command.strip().strip("`")] = re.findall(r"`(--[a-z-]+)`", flags)
    return table


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_readme_flag_table_lists_the_parser_flags(command):
    table = _readme_flags()
    assert list(table) == list(cli._COMMANDS)
    (commands,) = [a for a in cli.build_parser(command)._actions if a.dest == "command"]
    flags = [
        flag
        for action in commands.choices[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    ]
    assert sorted(table[command]) == sorted(flags)
