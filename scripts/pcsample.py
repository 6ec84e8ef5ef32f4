#!/usr/bin/env python3
"""Sample a program's program counter with ptrace and rank its functions.

    python3 scripts/pcsample.py -- PROG ARGS...

Starts PROG as a traced child, stops it about every millisecond, reads
its program counter, and maps each sample to the function that contains it
by the executable's `nm` symbols (weak ones included, so the runtime's
`caml_modify` is named).  When the child exits it prints each function's
share of the samples, largest first (the top 25).  Samples outside the
executable are attributed to the mapped file they fall in
(`[libc.so.6]`).

Only the child's main thread is sampled.  No dependencies beyond the
Python standard library, `nm` and a Linux kernel that lets a process
trace its own child (x86_64 or aarch64).
"""

import argparse
import bisect
import ctypes
import os
import platform
import shutil
import signal
import struct
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGSET = 0x4204
NT_PRSTATUS = 1

# the program counter's index in the kernel's NT_PRSTATUS register set
PC_INDEX = {"x86_64": 16, "aarch64": 32}

INTERVAL_S = 0.001  # time between samples
TOP = 25  # functions printed

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
                        ctypes.c_void_p)


class Iovec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(request, pid, addr, data):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%d): %s" % (request, os.strerror(err)))


def read_pc(pid, index):
    regs = (ctypes.c_ulong * 64)()
    iov = Iovec(ctypes.cast(regs, ctypes.c_void_p), ctypes.sizeof(regs))
    ptrace(PTRACE_GETREGSET, pid, NT_PRSTATUS, ctypes.byref(iov))
    return regs[index]


def symbols(exe):
    """Sorted (address, name) pairs of the executable's code symbols,
    without OCaml's per-module code_begin/code_end markers, which share
    an address with a function."""
    out = subprocess.run(["nm", "--defined-only", exe], check=True,
                         capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split()
        if (len(parts) == 3 and parts[1] in "TtWw"
                and not parts[2].endswith((".code_begin", ".code_end"))):
            syms.setdefault(int(parts[0], 16), parts[2])
    return sorted(syms.items())


def is_pie(exe):
    with open(exe, "rb") as f:
        header = f.read(18)
    # e_type at offset 16: 3 is ET_DYN, a position-independent executable
    return struct.unpack_from("<H", header, 16)[0] == 3


def read_maps(pid):
    """The child's mappings as (low, high, file offset, path) tuples."""
    maps = []
    with open("/proc/%d/maps" % pid) as f:
        for line in f:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            path = fields[5] if len(fields) >= 6 else "anonymous"
            maps.append((lo, hi, int(fields[2], 16), path))
    return maps


def find_mapping(maps, pc):
    for m in maps:
        if m[0] <= pc < m[1]:
            return m
    return None


def traceme():
    ptrace(PTRACE_TRACEME, 0, None, None)


def sample(argv):
    """Run argv to completion.  Returns its exit status, the sampled pcs
    inside the executable (as nm addresses) and the count of samples per
    other mapped file."""
    child = subprocess.Popen(argv, preexec_fn=traceme)
    pid = child.pid
    _, status = os.waitpid(pid, 0)  # stopped at exec
    if not os.WIFSTOPPED(status):
        raise RuntimeError("%s did not stop at exec" % argv[0])
    pcs, outside = [], {}
    index = PC_INDEX[platform.machine()]
    exe = os.path.realpath(argv[0])
    pie = is_pie(exe)
    maps, base = [], 0
    deliver = 0
    while True:
        ptrace(PTRACE_CONT, pid, None, deliver)
        deliver = 0
        time.sleep(INTERVAL_S)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            pass
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            child.returncode = (os.WEXITSTATUS(status) if os.WIFEXITED(status)
                                else -os.WTERMSIG(status))
            return child.returncode, pcs, outside
        sig = os.WSTOPSIG(status)
        if sig != signal.SIGSTOP:
            # a signal of the child's own: pass it on and keep going; the
            # SIGSTOP sent above is still pending and stops it next
            deliver = sig
            continue
        pc = read_pc(pid, index)
        m = find_mapping(maps, pc)
        if m is None:
            # a mapping that is new since the last read
            maps = read_maps(pid)
            m = find_mapping(maps, pc)
            # nm's addresses: file-relative in a position-independent
            # executable, absolute otherwise
            if pie:
                base = min(lo - off for lo, _, off, path in maps
                           if path == exe)
        if m is not None and m[3] == exe:
            pcs.append(pc - base)
        else:
            name = "[%s]" % os.path.basename(m[3]) if m else "[unmapped]"
            outside[name] = outside.get(name, 0) + 1


def attribute(exe, pcs, outside, syms):
    """Samples per function: each executable pc goes to the nearest
    symbol at or below it, or to the executable's name if none is."""
    addrs = [a for a, _ in syms]
    counts = dict(outside)
    for pc in pcs:
        i = bisect.bisect_right(addrs, pc) - 1
        name = syms[i][1] if i >= 0 else "[%s]" % os.path.basename(exe)
        counts[name] = counts.get(name, 0) + 1
    return counts


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s -- PROG ARGS...")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        ap.error("no program to sample")
    if platform.machine() not in PC_INDEX:
        ap.error("unsupported machine %s" % platform.machine())
    exe = argv[0] if os.sep in argv[0] else shutil.which(argv[0])
    if exe is None:
        ap.error("%s not found on PATH" % argv[0])
    argv = [exe] + argv[1:]
    status, pcs, outside = sample(argv)
    total = len(pcs) + sum(outside.values())
    if total == 0:
        print("pcsample: no samples (the program ran too briefly)",
              file=sys.stderr)
        return 1
    counts = attribute(exe, pcs, outside, symbols(exe))
    print("%d samples of %s (exit %d)" % (total, " ".join(argv), status))
    print("%7s %7s  %s" % ("share%", "samples", "function"))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, n in ranked[:TOP]:
        print("%7.1f %7d  %s" % (100.0 * n / total, n, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
