#!/bin/sh
# Where the linker put the byte pass and how many vector instructions its
# inner loop holds, read from a release binary (default: swsearch).
# ROADMAP 1(h): `solo_long` moves ±5 % per build with the start address of
# `avx2::sw_fused_u8` modulo 64, so a benchmark number is read beside this.
# Informational — fails only if the symbol is missing.
BIN=${1:-target/release/swsearch}
objdump -d --no-show-raw-insn -C "$BIN" | python3 -c '
import re, sys
body, start = [], None
for line in sys.stdin:
    if re.search(r"<sw_kernels::arch::x86::avx2::sw_fused_u8>:$", line):
        start = int(line.split()[0], 16)
    elif start is not None and not line.strip():
        break
    elif start is not None and (m := re.match(r"\s*([0-9a-f]+):\s+(\S+)\s*(\S*)", line)):
        body.append((int(m[1], 16), m[2], m[3]))
if start is None:
    sys.exit("avx2::sw_fused_u8 not found")
print(f"sw_fused_u8 starts at {start:#x}: mod 64 = {start % 64}")
# The inner loop is the shortest backward branch that spans a saturating
# byte add; one such add per database column it advances.
loops = []
for at, op, arg in body:
    if op.startswith("j") and re.fullmatch(r"[0-9a-f]+", arg) and int(arg, 16) <= at:
        span = [o for a, o, _ in body if int(arg, 16) <= a <= at]
        cols = sum(o in ("vpaddsb", "vpaddusb") for o in span)
        if cols:
            loops.append((len(span), sum(o.startswith("vp") for o in span), cols))
if loops:
    n, vec, cols = min(loops)
    print(f"inner loop: {n} instructions, {vec} vector ALU (vp*), {cols} column(s) "
          f"per trip: {vec / cols:g} vector ALU per 32 cells")
else:
    print("inner loop: not recognised (no backward branch spans a saturating byte add)")
'
