#!/usr/bin/env python3
"""Checks the ISA boundaries of the multiversioned kernels in built objects.

    python3 tests/check_isa_boundaries.py <build dir>

Reads `objdump -d -C` of contraction.cc.o, elementwise.cc.o and
execute.cc.o under the build directory. A function whose name mentions Avx2
or Avx512 belongs to an AVX variant (an entry point, or a helper GCC emitted
out of line); every other function, `.cold` clones included, is baseline
x86-64 code. It checks that:
  * no baseline function uses a ymm or zmm register or an FMA instruction:
    the generic variant runs on hosts without AVX, and an FMA reaching the
    i64 contraction path would round products beyond 2^53 differently;
  * every AVX entry point executes vzeroupper on every return: each `ret`
    follows a vzeroupper, with only the epilogue's stack restores between
    them. The entry points are MatMul/Conv2D Avx2/Avx512 and the Unary,
    Binary, Copy and Reduce rows of Avx2Rows and Avx512Rows. Without it the
    legacy-SSE loops that run next are several times slower, and no output
    changes, so no test can see it. (GCC emits vzeroupper before calls, so
    "contains one" alone would not do.)
  * each object's expected entry points are all present, so a rename cannot
    make the vzeroupper check pass vacuously;
  * execute.cc.o, the fused-kernel executor that calls the rows through
    pointers, holds no AVX function at all: every AVX function lives in
    elementwise.cc.o.
GCC's own vzeroupper pass also ends every AVX function with a vzeroupper,
so the objects of the build cannot show an explicit `_mm256_zeroupper()`
missing from the source. The check therefore also recompiles contraction.cc
and elementwise.cc with the build's compile commands (compile_commands.json,
which the top-level CMakeLists.txt exports) plus -mno-vzeroupper into a
temporary directory, and applies the vzeroupper and entry-point rules to
those objects.
Exits 1 and names each offending function otherwise.
"""
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

AVX_NAME = re.compile(r"Avx(2|512)")
ENTRY_POINT = re.compile(r"\b(MatMul|Conv2D)Avx(2|512)\(|"
                         r"\bAvx(2|512)Rows::(Unary|Binary|Copy|Reduce)\b")
WIDE_REGISTER = re.compile(r"%[yz]mm\d+")
FMA = re.compile(r"\bvf(n)?m(add|sub)")
# What may stand between a vzeroupper and the `ret` it guards.
EPILOGUE = re.compile(r"\s(pop|leave)\b|\s(lea|add|mov)\s.*,%rsp$")
# The entry points each object must hold, so a rename cannot make the
# vzeroupper check pass vacuously; an object with none must hold no AVX
# function.
CONTRACTION_ENTRIES = ("MatMulAvx2(", "MatMulAvx512(", "Conv2DAvx2(",
                       "Conv2DAvx512(")
ROW_ENTRIES = tuple("Avx%sRows::%s" % (isa, entry)
                    for isa in ("2", "512")
                    for entry in ("Unary<", "Binary<", "Copy(", "Reduce<"))
OBJECTS = {"contraction.cc.o": CONTRACTION_ENTRIES,
           "elementwise.cc.o": ROW_ENTRIES,
           "execute.cc.o": ()}
# The sources whose AVX entry points call _mm256_zeroupper() themselves.
EXPLICIT_VZEROUPPER = {"contraction.cc": CONTRACTION_ENTRIES,
                       "elementwise.cc": ROW_ENTRIES}


def find_object(build_dir, name):
    for root, _, files in os.walk(build_dir):
        if name in files:
            return os.path.join(root, name)
    sys.exit("check_isa_boundaries: %s not found under %s" % (name, build_dir))


def functions(path):
    """Yields (name, instruction lines) for each function in the object."""
    out = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", path],
                         check=True, capture_output=True, text=True).stdout
    name, body = None, []
    for line in out.splitlines():
        header = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
        if header:
            if name is not None:
                yield name, body
            name, body = header.group(1), []
        elif name is not None and line.strip():
            body.append(line)
    if name is not None:
        yield name, body


def returns_clean(body):
    """Whether every ret in `body` is reached through a vzeroupper."""
    returns = 0
    for i, line in enumerate(body):
        if not re.search(r"\sret\b", line):
            continue
        returns += 1
        j = i - 1
        while j >= 0 and EPILOGUE.search(body[j]):
            j -= 1
        if j < 0 or "vzeroupper" not in body[j]:
            return False
    return returns > 0


def check_object(label, path, expected, baseline_rules):
    """Returns the errors of one object: every AVX entry point returns
    through vzeroupper, the expected entry points are present, and (with
    `baseline_rules`) baseline functions use no ymm, zmm or FMA."""
    errors = []
    avx = baseline = entries = 0
    names = []
    for name, body in functions(path):
        names.append(name)
        text = "\n".join(body)
        if AVX_NAME.search(name):
            avx += 1
            if ENTRY_POINT.search(name) and "[clone" not in name:
                entries += 1
                if not returns_clean(body):
                    errors.append("%s: AVX entry point returns without "
                                  "vzeroupper: %s" % (label, name))
            continue
        baseline += 1
        if not baseline_rules:
            continue
        wide = WIDE_REGISTER.search(text)
        fma = FMA.search(text)
        if wide or fma:
            errors.append("%s: baseline function uses %s: %s"
                          % (label, (wide or fma).group(0), name))
    for entry in expected:
        if not any(entry in n and "[clone" not in n for n in names):
            errors.append("%s: entry point %s not found" % (label, entry))
    if bool(expected) != (avx > 0) or baseline == 0:
        errors.append("%s: found %d AVX functions (%d entry points) and "
                      "%d baseline functions" % (label, avx, entries,
                                                 baseline))
    print("%s: %d AVX functions (%d entry points), %d baseline functions"
          % (label, avx, entries, baseline))
    return errors


def compile_without_vzeroupper(build_dir, source, out_dir):
    """Compiles `source` with the build's own command plus -mno-vzeroupper
    into `out_dir` and returns the object's path."""
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(path):
        sys.exit("check_isa_boundaries: %s not found; reconfigure the build "
                 "(CMakeLists.txt exports compile commands)" % path)
    with open(path) as f:
        entries = json.load(f)
    for entry in entries:
        if os.path.basename(entry["file"]) != source:
            continue
        args = entry.get("arguments") or shlex.split(entry["command"])
        obj = os.path.join(out_dir, source + ".o")
        command, skip = [], False
        for arg in args:
            if skip:
                skip = False
            elif arg == "-o":
                command += ["-o", obj]
                skip = True
            elif arg in ("-MF", "-MT", "-MQ"):
                skip = True  # the build's dependency file, not ours
            elif arg not in ("-MD", "-MMD"):
                command.append(arg)
        command.append("-mno-vzeroupper")
        subprocess.run(command, cwd=entry["directory"], check=True)
        return obj
    sys.exit("check_isa_boundaries: %s not in %s" % (source, path))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build_dir = sys.argv[1]
    errors = []
    for obj, expected in OBJECTS.items():
        errors += check_object(obj, find_object(build_dir, obj), expected,
                               baseline_rules=True)
    with tempfile.TemporaryDirectory() as out_dir:
        for source, expected in EXPLICIT_VZEROUPPER.items():
            obj = compile_without_vzeroupper(build_dir, source, out_dir)
            errors += check_object(source + ".o (-mno-vzeroupper)", obj,
                                   expected, baseline_rules=False)
    for error in errors:
        print(error, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
