"""The argparse parser that `friendlab.cli` used before its flag table: the
reference that tests hold `cli.parse_args` to, kept as it was."""

import argparse
import functools

from friendlab.cli import cmd_accept, cmd_basic, cmd_feasibility, cmd_lf, cmd_relmodel, cmd_rovelli


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendlab",
        description="Simulate Extended Wigner's Friend experiments and decide "
                    "joint-distribution feasibility exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = {"--trials": {"type": int}, "--seed": {"type": int},
                 "--angles": {"help": "ask_A,super_A,ask_C,super_C in degrees"}}

    def command(name: str, func, help_text: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand with the flags every command reads, plus those of
        `run_flags` named in `flags`."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        for flag in flags:
            p.add_argument(flag, **run_flags[flag])
        p.add_argument("--format", choices=("table", "json", "csv"))
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("basic", cmd_basic, "sealed-lab state and its frame-relational form")
    p.add_argument("--amps", help="a,b amplitudes of the measured qubit")
    p.add_argument("--outcome", type=int, choices=(1, -1))

    command("lf", cmd_lf, "simulate the four-observer circuit", "--trials", "--seed", "--angles")

    p = command("feasibility", cmd_feasibility, "exact joint-distribution feasibility",
                "--angles")
    p.add_argument("--targets", help="JSON file of pairwise 2x2 tables")
    p.add_argument("--from-angles", dest="from_angles", action="store_true", default=None)

    p = command("relmodel", cmd_relmodel, "Monte Carlo frame-relational model",
                "--trials", "--seed", "--angles")
    p.add_argument("--planted-violation", dest="planted_violation",
                   action="store_true", default=None,
                   help="corrupt the batch to verify the audits catch it")

    p = command("rovelli", cmd_rovelli, "sequential-measurement scenario", "--trials", "--seed")
    p.add_argument("--trigger", type=int, choices=(1, -1))

    command("accept", cmd_accept, "run the acceptance suite", "--seed")
    return parser
