#!/usr/bin/env python3
"""Fail when a --gtest_filter pattern in the CI workflow matches no test.

Usage (from the repository root, after building):
    python3 tools/check_gtest_filters.py [workflow.yml]

Reads every `run:` command of the workflow (default:
.github/workflows/ci.yml), folding `>` blocks and backslash continuations
into one command line as the shell sees them. For each command that passes
--gtest_filter='...', the filter is split on ':' and every pattern is
listed on its own with `<binary> --gtest_list_tests --gtest_filter=<pattern>`,
where <binary> is the command's first word. Exits non-zero when any pattern
matches nothing: gtest runs an empty filter as a silent pass, so a renamed
or deleted suite would otherwise drop out of a CI step unnoticed.
"""

import re
import subprocess
import sys

FILTER = re.compile(r"--gtest_filter='([^']*)'")


def run_commands(lines):
    """Yield (line number, command) for every command of every run: key."""
    i = 0
    while i < len(lines):
        m = re.match(r"^(\s*)(?:-\s+)?run:\s*(.*)$", lines[i])
        i += 1
        if not m:
            continue
        indent, value = len(m.group(1)), m.group(2).strip()
        if value and value[0] not in ">|":
            yield i, value
            continue
        start = i
        block = []
        while i < len(lines) and (
            not lines[i].strip()
            or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i].strip())
            i += 1
        if value.startswith(">"):
            yield start, " ".join(part for part in block if part)
            continue
        command = ""
        for part in block:
            command += part
            if command.endswith("\\"):
                command = command[:-1] + " "
            elif command:
                yield start, command
                command = ""
        if command:
            yield start, command


def matches(binary, pattern):
    out = subprocess.run(
        [binary, "--gtest_list_tests", "--gtest_filter=" + pattern],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    # Test names are the indented lines; suite names and gtest_main's
    # banner are not.
    return sum(1 for line in out.splitlines() if line.startswith("  "))


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    with open(path) as f:
        lines = f.read().splitlines()
    checked = 0
    empty = []
    for lineno, command in run_commands(lines):
        for filt in FILTER.findall(command):
            binary = command.split()[0]
            for pattern in filt.split(":"):
                if pattern.startswith("-"):
                    sys.exit(f"{path}:{lineno}: negative pattern {pattern!r} "
                             "is not supported")
                n = matches(binary, pattern)
                checked += 1
                print(f"{n:5d}  {binary} {pattern}")
                if n == 0:
                    empty.append(f"{path}:{lineno}: {pattern!r} matches no "
                                 f"test in {binary}")
    if checked == 0:
        sys.exit(f"{path}: no --gtest_filter patterns found")
    for msg in empty:
        print(msg, file=sys.stderr)
    sys.exit(1 if empty else 0)


if __name__ == "__main__":
    main()
