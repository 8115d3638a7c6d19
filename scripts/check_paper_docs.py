#!/usr/bin/env python3
"""Fails if a doc quotes a measured number that PAPER_RESULTS.json does not hold.

Checks every markdown table in EXPERIMENTS.md and README.md with a
"measured" or "This repo" column: each number in that column must appear
in the measured value of some PAPER_RESULTS.json row.

    python3 scripts/check_paper_docs.py
"""
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?")
MEASURED_COLUMNS = {"measured", "this repo"}


def numbers(text):
    return {token.replace(",", "") for token in NUMBER.findall(text)}


def cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def main():
    results = json.loads((ROOT / "PAPER_RESULTS.json").read_text())
    held = set()
    for section in results["sections"]:
        for row in section["rows"]:
            held |= numbers(row["measured"])

    errors = []
    for doc in ("EXPERIMENTS.md", "README.md"):
        column = None
        for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            if not line.startswith("|"):
                column = None
                continue
            row = cells(line)
            if column is None:
                headers = [cell.lower() for cell in row]
                column = next((i for i, h in enumerate(headers)
                               if h in MEASURED_COLUMNS), -1)
            elif column >= 0 and not set(line) <= set("|-: ") and column < len(row):
                for value in sorted(numbers(row[column]) - held):
                    errors.append(f"{doc}:{number}: {value} ({row[column]!r}) "
                                  "is not a measured value in PAPER_RESULTS.json")
    for error in errors:
        print(error)
    if errors:
        sys.exit(1)
    print("docs quote only measured values PAPER_RESULTS.json holds")


if __name__ == "__main__":
    main()
