#!/usr/bin/env python3
"""Where a program's time goes, by sampling its instruction pointer.

    scripts/hotspots.py [--] PROGRAM [ARGS...]

Starts PROGRAM held before its exec, attaches to it with PTRACE_SEIZE
(and so to every thread it will start), lets it go on, and every
millisecond interrupts each thread, reads its instruction pointer and
lets it go on. When the program exits, the samples that fall in its
executable are resolved with `addr2line -f -i -C` (inline frames
included, so it needs the debug info the workspace's release profile
keeps) and the top 25 rows of two tables are printed:

- by the innermost source line under `crates/` (the line of this
  workspace's code that was running or had inlined what was running),
- by the innermost function, inlined ones included (`spec_fill`, say,
  where a slice fill was inlined into a router tick).

Samples in shared libraries are counted under the library's name. Give
PROGRAM as the executable itself, not `cargo run`: only the spawned
process is traced, not the processes it starts. The program runs slower
while sampled (a stop per sample); the shares are what to read, not the
times. Needs python3 and binutils' `addr2line`, and a kernel that lets a
process trace its own child; it changes no system setting. x86_64 and
aarch64 only.

Example, the saturated mesh of the repo benchmark:

    scripts/bench_build.sh
    scripts/hotspots.py -- benchmark/target/release/nox-benchmark run \\
        --workload mesh_saturated --seed 1
"""

import collections
import contextlib
import ctypes
import errno
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETEVENTMSG = 0x4201
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_O_TRACECLONE = 0x8
PTRACE_EVENT_CLONE = 3
PTRACE_EVENT_STOP = 128
NT_PRSTATUS = 1
WALL = 0x40000000

INTERVAL_S = 0.001
TOP = 25

# Index of the program counter among the 64-bit words of NT_PRSTATUS.
PC_INDEX = {"x86_64": 16, "aarch64": 32}

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(request, tid, addr=None, data=None):
    """One ptrace call; returns False if the thread is gone (ESRCH)."""
    if libc.ptrace(request, tid, addr, data) == -1:
        err = ctypes.get_errno()
        if err == errno.ESRCH:
            return False
        raise OSError(err, f"ptrace({request:#x}, {tid}): {os.strerror(err)}")
    return True


def read_pc(tid, pc_index):
    regs = (ctypes.c_uint64 * 64)()
    iov = IoVec(ctypes.cast(regs, ctypes.c_void_p), ctypes.sizeof(regs))
    if not ptrace(PTRACE_GETREGSET, tid, NT_PRSTATUS, ctypes.addressof(iov)):
        return None
    return regs[pc_index]


def event_msg(tid):
    msg = ctypes.c_ulong()
    ptrace(PTRACE_GETEVENTMSG, tid, None, ctypes.addressof(msg))
    return msg.value


def start_traced(argv):
    """Forks, execs argv traced from its first instruction; returns the pid.

    The child waits on a pipe before its exec until it is seized, so no
    thread of the program runs untraced and every clone it makes is
    traced. If it cannot be traced, it is killed."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(w)
            os.read(r, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    os.close(r)
    try:
        if not ptrace(PTRACE_SEIZE, pid, None, PTRACE_O_TRACECLONE):
            raise OSError(errno.ESRCH, os.strerror(errno.ESRCH))
    except OSError as e:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise SystemExit(f"cannot trace {argv[0]}: {e.strerror}") from None
    finally:
        os.close(w)  # lets the child go on to its exec, or to its end
    return pid


def sample(argv):
    """Runs argv to completion; returns (exit code, sampled PCs, its mappings)."""
    pc_index = PC_INDEX.get(platform.machine())
    if pc_index is None:
        raise SystemExit(f"no register layout for {platform.machine()}")
    pid = start_traced(argv)
    try:
        return follow(pid, pc_index)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        raise


def follow(pid, pc_index):
    threads = {pid}
    # Threads whose first stop is their start, not an interrupt.
    starting = set()
    pcs = []
    maps = None
    exit_status = 0
    while pid in threads:
        time.sleep(INTERVAL_S)
        pending = {t for t in threads if t not in starting and ptrace(PTRACE_INTERRUPT, t)}
        while pending or starting:
            tid, status = os.waitpid(-1, WALL)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                if tid == pid:
                    exit_status = status
                threads.discard(tid)
                pending.discard(tid)
                starting.discard(tid)
                continue
            if not os.WIFSTOPPED(status):
                continue
            event = status >> 16
            sig = 0
            if event == PTRACE_EVENT_STOP:
                if tid in starting:
                    starting.discard(tid)
                elif tid in pending:
                    pending.discard(tid)
                    pc = read_pc(tid, pc_index)
                    if pc is not None:
                        pcs.append(pc)
                        if maps is None or not covers(maps, pc):
                            maps = read_maps(pid) or maps
            elif event == PTRACE_EVENT_CLONE:
                new = event_msg(tid)
                if new not in threads:
                    threads.add(new)
                    starting.add(new)
            elif event == 0:
                sig = os.WSTOPSIG(status)  # a signal for the program: deliver it
            ptrace(PTRACE_CONT, tid, None, sig)
    return os.waitstatus_to_exitcode(exit_status), pcs, maps or []


def read_maps(pid):
    """[(start, end, offset, path)] of the process's file mappings."""
    try:
        with open(f"/proc/{pid}/maps") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    out = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or not parts[5].strip():
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        out.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    return out


def covers(maps, pc):
    return any(lo <= pc < hi for lo, hi, _, _ in maps)


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN


def resolve(exe, addrs):
    """{file address: [(function, file:line)], innermost frame first}."""
    frames = {}
    addrs = sorted(addrs)
    for i in range(0, len(addrs), 4096):
        chunk = addrs[i : i + 4096]
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", exe] + [hex(a) for a in chunk],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.splitlines()
        current = None
        j = 0
        while j < len(out):
            if out[j].startswith("0x"):
                current = int(out[j], 16)
                frames[current] = []
                j += 1
                continue
            func = out[j]
            where = out[j + 1] if j + 1 < len(out) else "??:0"
            frames[current].append((func, where))
            j += 2
    return frames


def short_path(where):
    where = where.split(" (discriminator")[0]
    k = where.find("/crates/")
    return where[k + 1 :] if k >= 0 else where


def short_func(func, width=70):
    return func if len(func) <= width else "..." + func[-(width - 3) :]


def table(title, counts, total):
    print(f"\n{title}")
    print(f"{'share':>7}  {'samples':>7}  where")
    for key, n in counts.most_common(TOP):
        print(f"{100 * n / total:6.1f}%  {n:7d}  {key}")


def main():
    argv = sys.argv[1:]
    argv = argv[1:] if argv[:1] == ["--"] else argv
    if not argv or argv[0].startswith("-"):
        raise SystemExit(__doc__.split("\n\n")[1])

    code, pcs, maps = sample(argv)
    if not pcs:
        raise SystemExit(f"no samples taken ({argv[0]} exited with {code})")
    exe = os.path.realpath(shutil.which(argv[0]) or argv[0])
    base = min((lo - off for lo, _, off, path in maps if path == exe), default=0)
    if not is_pie(exe):
        base = 0

    in_exe = collections.Counter()
    elsewhere = collections.Counter()
    for pc in pcs:
        m = next(((lo, path) for lo, hi, _, path in maps if lo <= pc < hi), None)
        if m and m[1] == exe:
            in_exe[pc - base] += 1
        else:
            elsewhere[f"[{os.path.basename(m[1])}]" if m else "[unmapped]"] += 1

    frames = resolve(exe, in_exe)
    by_line = collections.Counter()
    by_func = collections.Counter()
    for addr, n in in_exe.items():
        chain = frames.get(addr) or [("??", "??:0")]
        func = short_func(chain[0][0])
        line = next((short_path(w) for _, w in chain if "/crates/" in w), None)
        line = line or f"(outside crates/) {short_path(chain[0][1])}"
        by_line[line] += n
        by_func[func] += n
    for name, n in elsewhere.items():
        by_line[name] += n
        by_func[name] += n

    total = len(pcs)
    print(
        f"\n{total} samples every {INTERVAL_S * 1000:g} ms of {' '.join(argv)}"
        f" (exit {code}); {sum(elsewhere.values())} outside the executable"
    )
    table("By innermost crates/ source line", by_line, total)
    table("By innermost function (inlined ones included)", by_func, total)
    sys.exit(code)


if __name__ == "__main__":
    main()
