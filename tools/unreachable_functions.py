#!/usr/bin/env python3
"""List the src/ library functions that no executable links.

Configures an -O0 -ffunction-sections -Wl,--gc-sections build of the
repository, so every function sits in its own section and the linker drops
each one no executable reaches. A strong (nm type T) symbol of a src/
library that appears in no test, tool, bench or example executable is
unreachable code. Exits 1 and prints the demangled names when there is
any, 0 otherwise.

    python3 tools/unreachable_functions.py [--build-dir build-unreachable]
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

EXECUTABLE_DIRS = ("tests", "tools", "bench", "examples")


# The complete, base and deleting variants of one constructor or
# destructor (C1/C2/C3, D0/D1/D2) count as one function: an abstract
# class's deleting destructor is never linked while its base variant is.
STRUCTOR_VARIANT = re.compile(r"(?<=[0-9A-Za-z_])([CD])[0-3](?=E)")


def text_symbols(path, types):
    """Mangled names of the functions `path` defines with an nm type in
    `types`, constructor and destructor variants folded together."""
    out = subprocess.run(["nm", "--defined-only", path], capture_output=True,
                         text=True, check=True).stdout
    syms = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            syms.add(STRUCTOR_VARIANT.sub(r"\1", fields[2]))
    return syms


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default="build-unreachable")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.abspath(args.build_dir)

    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    # Build type "None" adds no flags of its own: an -O2 after the -O0
    # would inline callees away and report them unreachable.
    subprocess.run(["cmake", "-S", root, "-B", build,
                    "-DCMAKE_BUILD_TYPE=None",
                    "-DCMAKE_C_FLAGS=-O0 -ffunction-sections",
                    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
                    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"] + gen,
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)

    defined = set()
    for dirpath, _, files in os.walk(os.path.join(build, "src")):
        for name in files:
            if name.endswith(".a"):
                defined |= text_symbols(os.path.join(dirpath, name), "T")
    linked = set()
    for sub in EXECUTABLE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(build, sub)):
            for name in files:
                path = os.path.join(dirpath, name)
                if is_elf_executable(path):
                    # Hidden-visibility functions turn local (t) at link
                    # time; inline ones are weak (W).
                    linked |= text_symbols(path, "TtWw")

    unreachable = sorted(defined - linked)
    if not unreachable:
        print("unreachable functions: none of %d" % len(defined))
        return 0
    names = subprocess.run(["c++filt"], input="\n".join(unreachable),
                           capture_output=True, text=True,
                           check=True).stdout.split("\n")
    print("unreachable functions (%d of %d):" % (len(unreachable), len(defined)))
    for name in sorted(filter(None, names)):
        print("  " + name)
    return 1


if __name__ == "__main__":
    sys.exit(main())
