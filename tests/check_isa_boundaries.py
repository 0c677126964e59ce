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
Exits 1 and names each offending function otherwise.
"""
import os
import re
import subprocess
import sys

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


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    errors = []
    for obj, expected in OBJECTS.items():
        path = find_object(sys.argv[1], obj)
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
                                      "vzeroupper: %s" % (obj, name))
                continue
            baseline += 1
            wide = WIDE_REGISTER.search(text)
            fma = FMA.search(text)
            if wide or fma:
                errors.append("%s: baseline function uses %s: %s"
                              % (obj, (wide or fma).group(0), name))
        for entry in expected:
            if not any(entry in n and "[clone" not in n for n in names):
                errors.append("%s: entry point %s not found" % (obj, entry))
        if bool(expected) != (avx > 0) or baseline == 0:
            errors.append("%s: found %d AVX functions (%d entry points) and "
                          "%d baseline functions" % (obj, avx, entries,
                                                     baseline))
        print("%s: %d AVX functions (%d entry points), %d baseline functions"
              % (obj, avx, entries, baseline))
    for error in errors:
        print(error, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
