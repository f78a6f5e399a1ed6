"""Command line front end: width-table, plan, verify and plot-data.

Exit statuses: 0 success or verification pass, 1 verification failure or an
infeasible scenario, 2 usage, config or parse errors, or output that cannot
be written.

This module reads the command line and reports errors; the handlers are in
``commands``, which ``main`` imports only once the command line has parsed
and the config has loaded, so ``--help``, usage errors and config errors
never compile them.
"""

from __future__ import annotations

import atexit
import errno
import io
import os
import sys
from typing import Any, NoReturn

from .config import ConfigError, load_config, sig_spec
from .errors import NonFiniteOutputError, PlanningError, PlanParseError


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


# Every flag, once: its value reader, metavar and help, the config keys it sets
# ("a.b" is key b of section a; none for a flag the command reads itself), and
# the one command that takes it (None: every command).
FLAGS = {
    "--config": (str, "PATH", "JSON scenario config", (), None),
    "--format": (str, "csv|json", "output format", ("format",), None),
    "--out": (str, "PATH", "write output here instead of stdout", (), None),
    "--alpha-deg": (float, "DEG", "bed dip (deg), for the width-table bed and the region",
                    ("seabed.slope_alpha_deg", "region.slope_alpha_deg"), None),
    "--theta-deg": (float, "DEG", "opening angle (deg)", ("transducer.opening_angle_deg",), None),
    "--eta": (float, "ETA", "target overlap fraction", ("eta_target",), None),
    "--center-depth-m": (float, "M", "region center depth (m)", ("region.center_depth_m",), None),
    "--region-ew-nm": (float, "NM", "region east-west extent (NM)", ("region.width_ew_nm",), None),
    "--region-ns-nm": (float, "NM", "region north-south extent (NM)",
                       ("region.length_ns_nm",), None),
    "--headings-deg": (_csv_floats, "LIST", "headings (deg)", ("headings_deg",), "width-table"),
    "--distances-nm": (_csv_floats, "LIST", "distances (NM)", ("distances_nm",), "width-table"),
}


class UsageError(Exception):
    """A command line the tables refuse; args: the command it names (or "") and why."""


def _help(command: str) -> str:
    """Help built from the tables; its first line is the usage line."""
    if command:
        _, about, metavar = COMMANDS[command]
        usage = f"{command} [-h] [--FLAG VALUE ...] {metavar}".rstrip()
        rows = [(f"{flag} {e[1]}", e[2]) for flag, e in FLAGS.items() if e[4] in (None, command)]
    else:
        about = "Multibeam swath widths and survey line layout over a sloped seabed."
        usage, rows = "[-h] COMMAND ...", [(name, entry[1]) for name, entry in COMMANDS.items()]
    rows = [("-h, --help", "show this help and exit"), *rows]
    return f"usage: swathplan {usage}\n\n{about}\n\n" + "".join(f"  {a:<22}{b}\n" for a, b in rows)


def parse_args(argv: list[str]) -> tuple[str, dict[str, Any], dict[str, Any]]:
    """The command, the values given by flag name or positional metavar (or
    only the help text, under "--help"), and the partial config document the
    flags form. A flag's value follows "=" or else is the next argument,
    whatever it starts with; the last of a repeated flag wins."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return "", {"--help": _help("")}, {}
    if command not in COMMANDS:
        got = f", got {command!r}" if argv else ""
        raise UsageError("", f"expected a command ({', '.join(COMMANDS)}){got}")
    metavar, given, overrides = COMMANDS[command][2], {}, {}
    args = iter(argv[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            return command, {"--help": _help(command)}, {}
        name, eq, text = arg.partition("=")
        entry = FLAGS.get(name)  # whole names only: no prefix stands for a flag
        if entry is None or entry[4] not in (None, command):
            if arg.startswith("-") or not metavar or metavar in given:
                raise UsageError(command, f"unrecognized arguments: {arg}")
            given[metavar] = arg
            continue
        if not eq and (text := next(args, None)) is None:
            raise UsageError(command, f"argument {name}: expected one argument")
        try:
            given[name] = value = entry[0](text)
        except ValueError as err:
            raise UsageError(command, f"argument {name}: {err}") from None
        for key in entry[3]:
            section, _, key = key.rpartition(".")
            (overrides.setdefault(section, {}) if section else overrides)[key] = value
    if metavar and metavar not in given:
        raise UsageError(command, f"the following arguments are required: {metavar}")
    return command, given, overrides


# Every command: its handler's name in ``commands``, its help, and its
# positional's metavar ("": none).
COMMANDS = {
    "width-table": ("cmd_width_table", "swath width grid over headings and distances", ""),
    "plan": ("cmd_plan", "lay out north-south survey lines", ""),
    "verify": ("cmd_verify", "audit a plan file written by 'plan' against the scenario", "PLAN"),
    "plot-data": ("cmd_plot_data", "emit plan and region geometry as JSON", ""),
}


class _ClosedStdout(io.TextIOBase):
    """Stdout for a process started with fd 1 closed, where ``sys.stdout`` is
    None: each write fails, as a write to a full disk does."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stdout is closed")


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device if it still cannot flush.

    Output that stdout could not write (a closed pipe, a full disk) stays
    buffered, and the interpreter's flush at exit would fail on it again,
    with a second report and status 120.
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # started with fd 1 closed
        sys.stdout = _ClosedStdout()
    try:
        command, given, overrides = parse_args(sys.argv[1:] if argv is None else argv)
        if "--help" in given:
            sys.stdout.write(given["--help"])
            code = 0
        else:
            cfg = load_config(given.get("--config"), overrides)
            from . import commands  # only a command that runs compiles the handlers

            code = getattr(commands, COMMANDS[command][0])(given, cfg)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        return code
    except UsageError as err:
        command, message = err.args
        prog = f"swathplan {command}".rstrip()
        print(f"{_help(command).splitlines()[0]}\n{prog}: error: {message}", file=sys.stderr)
        return 2
    except (ConfigError, PlanParseError, NonFiniteOutputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        _drop_unwritable_stdout()
        return 2
    except PlanningError as err:
        print(f"error: {err}", file=sys.stderr)
        partial = err.partial_plan
        if partial is not None:
            spec = sig_spec(cfg.precision)  # as the plan file would print them
            print(f"partial plan ({partial.line_count} lines):", file=sys.stderr)
            for p in partial.placements:
                print(f"  x={spec % p.x} m  width={spec % p.swath_width} m", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Process entry of `python -m swathplan`, `python -m swathplan.cli` and
    the `swathplan` script: run `main` and exit with its status.

    Once `main` returns, the atexit hooks run and stdout and stderr are
    flushed, and then `os._exit(status)` ends the process without the
    interpreter's teardown, which only frees memory the OS takes back. A
    flush that fails leaves the exit to the interpreter, which reports it as
    any exit does, and so does a profiler or tracer attached to the process
    (`python -m cProfile -o prof.out -m swathplan`, `python -m trace`): it
    writes its results once this call returns. `main` itself never exits:
    tests and library callers run it in-process.
    """
    status = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: how cProfile attaches there
    if sys.getprofile() or sys.gettrace() or (
        monitoring and monitoring.get_tool(monitoring.PROFILER_ID)
    ):
        raise SystemExit(status)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a failed write, or a stream closed under us
        raise SystemExit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
