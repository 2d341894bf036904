import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import re
from pathlib import Path

import pytest

from clirun import popen_cli, run_cli, run_python
from oracles import (
    crossover,
    naive_is_prime,
    naive_witness_rs,
    smooth_tier,
    tier_lcm,
    window_candidates,
)

from ramify import __version__, claims, cli
from ramify.arith import DEFAULT_BUDGET_BITS, prime_table
from ramify.claims import CLAIMS
from ramify.counting import _ROW_BITS_PER_N
from ramify.ramification import admits_strong_ramifier, goldbach_partitions, index_of

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parent.parent / "scripts"


def without_timestamp(text):
    return re.sub(r'  "generated_at": "[^"]*",\n', "", text)


def payload_of(proc):
    env = json.loads(proc.stdout)
    assert set(env) == {"tool_version", "command", "generated_at", "payload"}
    return env["payload"]


class TestCheck:
    def test_ramifier_exit_0(self):
        proc = run_cli("check", "7", "5")
        assert proc.returncode == 0
        assert "character 1" in proc.stdout

    def test_non_ramifier_exit_1(self):
        proc = run_cli("check", "17", "5")
        assert proc.returncode == 1
        assert "character 0" in proc.stdout

    def test_domain_guard_exit_2(self):
        proc = run_cli("check", "1", "5")
        assert proc.returncode == 2
        assert ">= 2" in proc.stderr

    def test_malformed_integer_exit_2(self):
        assert run_cli("check", "seven", "5").returncode == 2

    def test_strong_residues_by_the_divisor_scan(self):
        # m = 2**28: a prime table to m would pass the 2**30-bit budget, and
        # the two residues are tested by the divisor scan instead
        proc = run_cli("check", "178957007", "268435456", "--strong")
        assert proc.returncode == 0
        witness = "witness m=268435456 n=178957007 p1=178957007 r=89478558 p2=89478449"
        assert witness in proc.stdout.splitlines()
        # m = 2**50: the prime residue 1013309916158461 has no factor below
        # 2**14 and the window [2, 31832529], over the scan cap; without
        # --strong no residue is tested, and the pair's own window is under
        # the cap
        n, m = "1013309916158461", "1125899906842624"
        proc = run_cli("check", n, m, "--strong")
        assert proc.returncode == 3
        assert "window [2, 31832529] needs 31832528 candidates" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert run_cli("check", n, m).returncode == 0

    @pytest.mark.parametrize(
        "n",
        [
            "1970324836974592",  # a1 = 2**49 + 2**48, a2 = 2**48
            "1013309916158361",  # a1 = n = 3 * 337769972052787
        ],
    )
    def test_strong_residue_with_a_small_factor_past_the_cap(self, n):
        # a residue above 2**48 whose window the scan cap refuses, but whose
        # factor below 2**14 one gcd finds: the pair is not a strong ramifier
        m = "1125899906842624"
        proc = run_cli("check", n, m, "--strong")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith(f"n={n} mod m={m}: character 1, not a strong ramifier\n")
        assert run_cli("check", n, m).returncode == 0

    def test_json_payload(self):
        payload = payload_of(run_cli("check", "7", "5", "--json"))
        assert payload["character"] == 1
        assert payload["index"] == 4
        assert payload["witnesses"] == [{"m": 5, "n": 7, "a1": 2, "r": 4, "a2": 3}]

    @pytest.mark.parametrize(
        "args, code, payload",
        [
            (
                ("7", "5"),
                0,
                {
                    "n": 7, "m": 5, "strong": False, "character": 1,
                    "is_ramifier": True, "index": 4, "all_indices": [4],
                    "witnesses": [{"m": 5, "n": 7, "a1": 2, "r": 4, "a2": 3}],
                },
            ),
            (
                ("17", "5"),
                1,
                {
                    "n": 17, "m": 5, "strong": False, "character": 0,
                    "is_ramifier": False, "index": None, "all_indices": [],
                    "witnesses": [],
                },
            ),
            (
                ("19", "8", "--strong"),
                0,
                {
                    "n": 19, "m": 8, "strong": True, "character": 1,
                    "is_ramifier": True, "index": 7, "all_indices": [7],
                    "witnesses": [{"m": 8, "n": 19, "p1": 3, "r": 7, "p2": 5}],
                },
            ),
            (
                # a ramifier whose residue split 4 + 1 is not a prime pair
                ("4", "5", "--strong"),
                1,
                {
                    "n": 4, "m": 5, "strong": True, "character": 1,
                    "is_ramifier": False, "index": 3, "all_indices": [3],
                    "witnesses": [],
                },
            ),
        ],
        ids=["7-5", "17-5", "19-8-strong", "4-5-strong"],
    )
    def test_full_payload(self, args, code, payload):
        proc = run_cli("check", *args, "--format", "json")
        assert proc.returncode == code
        assert payload_of(proc) == payload

    def test_strong_json(self):
        payload = payload_of(run_cli("check", "19", "8", "--strong", "--json"))
        assert payload["witnesses"] == [{"m": 8, "n": 19, "p1": 3, "r": 7, "p2": 5}]
        assert payload["is_ramifier"] is True

    @pytest.mark.parametrize(
        "n, m",
        [
            (665_880_118_035, 355_088),  # window below sqrt(k), prime residues
            (167_279_807_974, 355_948),  # window below sqrt(k), six witnesses
            (677_239, 716_658),  # window above sqrt(k), prime residues
            (2_456_026, 831_368),  # window above sqrt(k), four witnesses
            (8_209, 16_418),  # n = m/2: every r in the window divides k = 0
            (477_110_510_428, 55_702),  # window below sqrt(k), no witness
            (393_996, 626_236),  # window above sqrt(k), no witness
        ],
    )
    def test_strong_json_above_the_smooth_tier(self, n, m):
        # windows reaching 2**14 take the scan, however many candidates they have
        proc = run_cli("check", str(n), str(m), "--strong", "--json")
        payload = payload_of(proc)
        expected = naive_witness_rs(n, m)
        assert payload["all_indices"] == expected
        a1 = n % m
        strong = naive_is_prime(a1) and naive_is_prime(m - a1)
        assert [w["r"] for w in payload["witnesses"]] == (expected if strong else [])
        assert proc.returncode == (0 if strong and expected else 1)

    @pytest.mark.parametrize(
        "n, m",
        [
            ("999999999999999997", "999999999"),  # a scan of about 10**9 candidates
            ("1000000000", "2000000000"),  # n = m/2: a list of 10**9 - 1 witnesses
        ],
    )
    def test_scan_cap_exit_3(self, n, m):
        proc = run_cli("check", n, m)
        assert proc.returncode == 3
        assert "resource budget exceeded" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_window_above_sqrt_k_under_the_cap(self):
        # k = n - a2 = 2**9 * 5**8 * 83 * 107 * 563 has sqrt(k) near 3.2e7, over
        # the cap, but the window [a2 + 1, m - 1] lies above sqrt(k), so the
        # scan visits only the d in [ceil(k/(m - 1)), k // (a2 + 1)], about 4e6
        n, m = 1_000_000_800_000_000, 1_000_000_000
        a2 = m - n % m
        k = n - a2
        assert k == 2**9 * 5**8 * 83 * 107 * 563
        divisors = {1}
        for p, e in ((2, 9), (5, 8), (83, 1), (107, 1), (563, 1)):
            divisors = {d * p**i for d in divisors for i in range(e + 1)}
        expected = sorted(d for d in divisors if a2 < d < m)
        assert len(expected) == 62
        proc = run_cli("check", str(n), str(m), "--json")
        assert proc.returncode == 0
        assert payload_of(proc)["all_indices"] == expected


def check_grid_pairs():
    """About 200 (n, m) pairs for the `ramify check --strong` golden grid.

    Random pairs, n log-uniform to 10**12 and m to 10**4; then windows
    built on purpose: the widest window (n = -1 mod m) of 5 to 9,998
    candidates and with k = n - 1 small enough that the window reaches
    above sqrt(k), n = m/2 (every r in the window divides k = 0), and strong
    ramifiers of even moduli.
    """
    rng = random.Random(2019)

    def log_uniform(lo, hi):
        return min(hi, max(lo, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))

    pairs = [(log_uniform(2, 10**12), log_uniform(2, 10**4)) for _ in range(150)]
    for m in (7, 40, 255, 257, 258, 259, 300, 301, 600, 1000, 4096, 7919, 9973, 9998, 10_000):
        pairs += [(m * t - 1, m) for t in (3, 10**6 // m + 1, 10**12 // m)]
    pairs += [(20, 40), (300, 600), (129, 258)]
    for m in (8, 30, 98, 300, 514, 1000, 4002, 9998):
        for _ in range(2):
            primes = [p for p in range(3, m - 2) if naive_is_prime(p) and naive_is_prime(m - p)]
            a1 = rng.choice(primes)
            a2 = m - a1
            rs = [r for r in range(a2 + 1, m) if (a1 - a2) % math.gcd(m, r) == 0]
            r = rng.choice(rs)  # n = a1 (mod m) and n = a2 (mod r) is solvable
            start = a2 + r * rng.randrange(10**3, 10**9)
            pairs.append((next(n for n in range(start, start + r * m, r) if n % m == a1), m))
    return pairs


def _largest_prime(v):
    """The largest prime factor of v > 1, by trial division."""
    d = 2
    while d * d <= v:
        if v % d:
            d += 1
        else:
            v //= d
    return v


def check_grid_text():
    """The golden grid's file text: per pair its arguments, exit code and
    the JSON envelope `ramify check --strong --json` prints, less its
    timestamp line.  Run in-process.  To rewrite the golden file after a
    deliberate payload change, write this text to tests/golden/check_grid.json
    (`PYTHONPATH=src:tests python -c "import test_cli; ..."`)."""
    entries = []
    for n, m in check_grid_pairs():
        argv = ["check", str(n), str(m), "--strong", "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        entries.append({"argv": argv, "exit": code, "stdout": without_timestamp(out.getvalue())})
    return json.dumps(entries, indent=1) + "\n"


def _grid_windows():
    """(k, lo, hi, candidates, gate) per grid pair whose window (m - a1, m) ends
    below 2**14 and can hold a divisor of k > 0: the candidates a scan would
    visit, and the most its tier's gate lets a scan visit."""
    out = []
    for n, m in check_grid_pairs():
        a1 = n % m
        a2 = m - a1
        k, lo, hi = abs(n - a2), a2 + 1, m - 1
        if a1 <= 1 or k < lo or hi >= 2**14:
            continue
        out.append((k, lo, hi, window_candidates(k, lo, hi), crossover(hi)))
    return out


class TestCheckGrid:
    def test_grid_covers_both_sides_of_the_gate(self):
        pairs = check_grid_pairs()
        assert 190 <= len(pairs) <= 230
        windows = _grid_windows()
        assert any(count > gate for *_, count, gate in windows)
        assert any(0 < count <= gate for *_, count, gate in windows)
        assert {m % 2 for _, m in pairs} == {0, 1}

    def test_grid_takes_the_smooth_route(self):
        # a window ending below 2**14 with more candidates than its tier's gate
        # lists the divisors of K = gcd(k, lcm(1..t)), t > hi, from K's
        # factorisation, or none when K < lo
        routed = [
            (k, lo, math.gcd(k, tier_lcm(smooth_tier(hi))), count)
            for k, lo, hi, count, gate in _grid_windows()
            if count > gate
        ]
        assert any(K == k for k, _, K, _ in routed)  # k is its own smooth part
        # the trial division leaves K's largest prime factor, above 128, as its cofactor
        assert any(
            K >= lo and _largest_prime(K) > 128 and K % _largest_prime(K) ** 2
            for _, lo, K, _ in routed
        )
        assert any(K < lo for _, lo, K, _ in routed)  # no divisor to list
        assert any(count <= 256 and K >= lo for _, lo, K, count in routed)  # under 256 candidates

    def test_reproduces_the_golden_grid(self):
        golden = json.loads((GOLDEN / "check_grid.json").read_text())
        entries = json.loads(check_grid_text())
        assert len(entries) == len(golden)
        for got, want in zip(entries, golden):
            assert got == want, want["argv"]


class TestScan:
    def test_m5_x20(self):
        payload = payload_of(run_cli("scan", "--m", "5", "--x", "20", "--format", "json"))
        assert payload["summary"]["count"] == 6
        assert payload["ramifiers"] == [4, 7, 8, 9, 18, 19]
        assert payload["summary"]["radius"] == 14
        assert payload["truncated"] is False

    def test_m2_x100(self):
        payload = payload_of(run_cli("scan", "--m", "2", "--x", "100", "--format", "json"))
        assert payload["summary"]["count"] == 0
        assert payload["ramifiers"] == []

    def test_csv_rows(self):
        proc = run_cli("scan", "--m", "3", "--x", "10", "--format", "csv")
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["n", "character"]
        assert rows[1:] == [
            [str(n), "1" if n == 5 else "0"] for n in range(2, 11)
        ]

    def test_json_flag(self):
        args = ("scan", "--m", "37", "--x", "600")
        flag, fmt = run_cli(*args, "--json"), run_cli(*args, "--format", "json")
        assert flag.returncode == fmt.returncode == 0
        assert payload_of(flag) == payload_of(fmt)

    def test_budget_exit_3(self):
        proc = run_cli("scan", "--m", "5", "--x", "100000", "--budget-bits", "1000")
        assert proc.returncode == 3
        assert "budget" in proc.stderr

    def test_budget_boundary(self):
        # the sieve charges one byte, 8 bits, per n in [0, x]
        scan = ("scan", "--m", "7", "--x", "1000", "--budget-bits")
        assert run_cli(*scan, str(8 * 1001)).returncode == 0
        proc = run_cli(*scan, str(8 * 1001 - 1))
        assert proc.returncode == 3
        assert "budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_index_overflow_exit_2(self):
        # within the budget, but x + 1 bytes overflow an index-sized integer
        proc = run_cli("scan", "--m", "5", "--x", str(10**30), "--budget-bits", str(10**41))
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_of_memory_exit_3(self):
        # within the budget, but x + 1 bytes are more than any host can
        # allocate: the allocation fails at once, so nothing is touched
        proc = run_cli("scan", "--m", "5", "--x", str(10**18), "--budget-bits", str(10**41))
        assert proc.returncode == 3
        assert "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args, golden",
        [
            (("--m", "37", "--x", "600", "--format", "json"), "scan_m37_x600.json"),
            # 15,565 ramifiers, over the LIST_CAP of 10,000
            (("--m", "997", "--x", "40000", "--format", "json"), "scan_m997_x40000.json"),
            (("--m", "997", "--x", "40000"), "scan_m997_x40000.txt"),
        ],
        ids=["m37-x600-json", "m997-x40000-json-truncated", "m997-x40000-text-truncated"],
    )
    def test_golden_payload(self, args, golden):
        proc = run_cli("scan", *args)
        assert proc.returncode == 0
        assert without_timestamp(proc.stdout) == (GOLDEN / golden).read_text()

    def test_domain_guard(self):
        assert run_cli("scan", "--m", "1", "--x", "10").returncode == 2

    def test_large_modulus_small_x(self):
        # only the inner moduli r > m - x can mark an n <= x: nine of them, not m - 2
        proc = run_cli("scan", "--m", "30000", "--x", "10", "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert payload_of(proc)["ramifiers"] == []

    def test_huge_modulus_small_x(self):
        # only the inner moduli r > m - x can mark an n <= x: nine of them here
        proc = run_cli("scan", "--m", str(10**12), "--x", "10", "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert payload_of(proc)["ramifiers"] == []

    def test_x_equal_to_a_large_modulus(self):
        # x + min(m, x) steps; below 2m every ramifier lies in a closed-form band
        proc = run_cli("scan", "--m", "10000", "--x", "10000", "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        payload = payload_of(proc)
        assert payload["ramifiers"] == [5000, *range(6667, 10000)]
        assert payload["summary"]["count"] == 3334


class TestClaims:
    def test_c2_exit_0(self):
        proc = run_cli("claims", "--ids", "C2", "--m-max", "20", "--x", "500")
        assert proc.returncode == 0
        assert "HOLDS_AT_SCALE" in proc.stdout

    def test_c11_exit_1_with_counterexample(self):
        proc = run_cli(
            "claims", "--ids", "C11", "--m-max", "10", "--x", "200", "--format", "json"
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)["payload"]
        (report,) = payload["reports"]
        assert report["verdict"] == "FAILS_WITH_COUNTEREXAMPLE"
        assert {
            "property": "i",
            "m": 5,
            "n": 7,
            "value_at_n": 1,
            "value_at_shift": 0,
        } in report["counterexamples"]

    def test_json_flag(self):
        args = ("claims", "--m-max", "12", "--x", "200")
        flag, fmt = run_cli(*args, "--json"), run_cli(*args, "--format", "json")
        assert flag.returncode == fmt.returncode == 1
        assert payload_of(flag) == payload_of(fmt)

    def test_unknown_id_exit_2(self):
        proc = run_cli("claims", "--ids", "C99")
        assert proc.returncode == 2

    def test_conjectures_and_asymptotics_do_not_flip_exit(self):
        proc = run_cli("claims", "--ids", "C4,C5,C6", "--m-max", "10", "--x", "60")
        assert proc.returncode == 0

    def test_csv_header_and_rows(self):
        proc = run_cli(
            "claims", "--ids", "C4", "--m-max", "5", "--x", "20", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == [
            "claim_id", "param_m", "param_x", "claimed", "actual", "discrepancy", "verdict",
        ]
        assert rows[1][0] == "C4" and rows[1][1] == "5" and rows[1][2] == "20"
        assert rows[1][4] == "6"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_1_exit_2(self, threads):
        # --threads is gone: argparse rejects it whatever its value
        proc = run_cli("claims", "--ids", "C2", "--threads", threads)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, golden",
        [
            (("--m-max", "12", "--x", "200", "--format", "json"), "claims_m12_x200.json"),
            (("--m-max", "12", "--x", "200", "--format", "csv"), "claims_m12_x200.csv"),
            (("--m-max", "12", "--x", "200"), "claims_m12_x200.txt"),
            # --m-max 3 runs C5 at its floor m_max = 4
            (("--m-max", "3", "--x", "40", "--format", "json"), "claims_m3_x40.json"),
            # the claims that read bulk rows; C11 records 25 per modulus here
            (
                ("--ids", "C5,C8,C9,C11", "--m-max", "30", "--x", "600", "--format", "json"),
                "claims_c5_c8_c9_c11_m30_x600.json",
            ),
        ],
        ids=["m12-x200-json", "m12-x200-csv", "m12-x200-text", "m3-x40-json", "bulk-m30-x600"],
    )
    def test_golden_payload(self, args, golden):
        proc = run_cli("claims", *args)
        assert proc.returncode == 1
        assert without_timestamp(proc.stdout) == (GOLDEN / golden).read_text()

    def test_runs_each_claim_through_its_registry_entry(self, capsys):
        # perfbench/tracer.py swaps every runner for a (*args, **kwargs)
        # wrapper; the CLI must still pass each claim its own parameters
        calls = {cid: 0 for cid in CLAIMS}

        def wrap(cid, runner):
            def wrapper(*args, **kwargs):
                calls[cid] += 1
                return runner(*args, **kwargs)

            return wrapper

        saved = dict(CLAIMS)
        try:
            for cid, info in saved.items():
                CLAIMS[cid] = dataclasses.replace(info, runner=wrap(cid, info.runner))
            code = cli.main(["claims", "--m-max", "12", "--x", "200", "--format", "json"])
        finally:
            CLAIMS.update(saved)
        assert code == 1
        assert calls == {cid: 1 for cid in CLAIMS}
        golden = (GOLDEN / "claims_m12_x200.json").read_text()
        assert without_timestamp(capsys.readouterr().out) == golden
        assert all(CLAIMS[cid] is info for cid, info in saved.items())

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--ids", ","), "--ids names no claim"),
            (("--ids", ""), "--ids names no claim"),
            (("--ids", "C2", "--m-max", "1"), "--m-max and --x must both be >= 2"),
            (("--ids", "C8", "--x", "1"), "--m-max and --x must both be >= 2"),
            (("--m-max", "0"), "--m-max and --x must both be >= 2"),
        ],
        ids=["ids-comma", "ids-empty", "m-max-1", "x-1", "m-max-0"],
    )
    def test_inputs_that_check_nothing_exit_2(self, args, message):
        proc = run_cli("claims", *args)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_bound_sweep_script_shares_the_csv_rows(self):
        proc = run_python(str(SCRIPTS / "bound_sweep.py"), "--m", "3", "5", "--x", "100")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == [
            "claim_id", "param_m", "param_x", "claimed", "actual", "discrepancy", "verdict",
        ]
        # C4, C6: 2 cells; C7: 1; C10: m = 2..5; C12: 2 cells x 2 bounds
        ids = [r[0] for r in rows[1:]]
        assert ids == ["C4"] * 2 + ["C6"] * 2 + ["C7"] + ["C10"] * 4 + ["C12"] * 4

    def test_c8_at_x_1e5_stays_in_its_envelope(self):
        # O(x) time and memory; the modulus lists would need ~4e9 entries
        proc = run_cli("claims", "--ids", "C8", "--x", "100000", "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        (report,) = payload_of(proc)["reports"]
        assert report["actual"] == 99_998

    def test_c3_at_m_max_3000(self):
        # the residue of a^e is taken before the plain power is built
        proc = run_cli("claims", "--ids", "C3", "--m-max", "3000", "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        (report,) = payload_of(proc)["reports"]
        assert (report["claim_id"], report["actual"]) == ("C3", 0)

    def test_c8_beyond_its_counters_exit_3(self):
        # C8's charge of 32 bits per n in [0, x + 1] passes 2**30 bits at x = 2**25 - 1
        proc = run_cli("claims", "--ids", "C8", "--x", str(2**25 - 1))
        assert proc.returncode == 3
        assert "budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_c7_beyond_its_sweep_exit_3(self):
        # the sweep charges 2048 bits per n in [0, x]: 2**30 bits hold x < 2**19,
        # so x = 2**19 is refused before anything is allocated
        proc = run_cli("claims", "--ids", "C7", "--x", str(2**19), timeout=10)
        assert proc.returncode == 3
        assert "budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "claims.json"
        proc = run_cli(
            "claims", "--ids", "C2", "--m-max", "10", "--x", "100", "--out", str(out)
        )
        assert proc.returncode == 0
        env = json.loads(out.read_text())
        assert env["payload"]["reports"][0]["claim_id"] == "C2"


@pytest.mark.parametrize(
    "args",
    [
        ("claims", "--threads", "2"),
        ("check", "7", "5", "--budget-bits", "64"),
        ("claims", "--budget-bits", "64"),
        ("goldbach", "--m-max", "10", "--budget-bits", "64"),
    ],
    ids=["claims-threads", "check-budget-bits", "claims-budget-bits", "goldbach-budget-bits"],
)
def test_flag_outside_its_subcommand_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--m", "5", "--x", "20", "--format", "csv", "--json"),
        ("check", "7", "5", "--json", "--format", "text"),
        ("goldbach", "--m-max", "10", "--format", "json", "--json"),
    ],
    ids=["scan-csv", "check-text", "goldbach-json"],
)
def test_json_and_format_conflict_exit_2(args):
    # --json is --format json, so the two together are one flag given twice
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "not allowed with argument" in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


class TestGoldbach:
    def test_m_max_10(self):
        payload = payload_of(run_cli("goldbach", "--m-max", "10", "--json"))
        assert [row["m"] for row in payload["rows"]] == [4, 6, 8, 10]
        assert payload["mismatches"] == 0
        certs = {row["m"]: row["certificate"] for row in payload["rows"]}
        assert certs[4] == {"n": 2, "p1": 2, "r": 3, "p2": 2}
        assert certs[10] == {"n": 5, "p1": 5, "r": 6, "p2": 5}

    def test_prime_table_over_budget_exit_3(self):
        # stops at the prime table, before the O(m_max**2) partition sweep
        proc = run_cli("goldbach", "--m-max", str(2**27))
        assert proc.returncode == 3
        assert "budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_m_max_4(self):
        payload = payload_of(run_cli("goldbach", "--m-max", "4", "--json"))
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["partitions"] == 1

    def test_m_max_3_exit_2(self):
        assert run_cli("goldbach", "--m-max", "3").returncode == 2

    def test_summary_line(self):
        proc = run_cli("goldbach", "--m-max", "10")
        assert "equivalence counterexamples: 0" in proc.stdout
        assert proc.returncode == 0

    def test_csv(self):
        proc = run_cli("goldbach", "--m-max", "8", "--format", "csv")
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0][:2] == ["m", "partitions"]
        assert rows[1] == ["4", "1", "2", "2", "3", "2"]

    @pytest.mark.parametrize(
        "fmt, golden", [("json", "goldbach_m200.json"), ("csv", "goldbach_m200.csv")]
    )
    def test_golden_payload(self, fmt, golden):
        proc = run_cli("goldbach", "--m-max", "200", "--format", fmt)
        assert proc.returncode == 0
        assert without_timestamp(proc.stdout) == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "cert",
        # m = 12: 17 % 11 = 6, not 7; p2 = 9 composite; none though 12 = 5 + 7
        [(17, 5, 11, 7), (39, 3, 10, 9), None],
        ids=["wrong-r", "composite-p2", "missing"],
    )
    def test_bad_certificate_is_a_mismatch(self, cert, monkeypatch):
        # the counts and certificates come from one word, so only the re-check
        # of each certificate against the definition can see the first two;
        # C5 and goldbach judge them by the same rule
        real = cli.goldbach_sweep

        def sweep(m_max, primes):
            counts, certs = real(m_max, primes)
            assert certs[4] == (17, 5, 10, 7)  # m = 12
            certs[4] = cert
            return counts, certs

        monkeypatch.setattr(cli, "goldbach_sweep", sweep)
        monkeypatch.setattr(claims, "goldbach_sweep", sweep)
        code, text = main_to_stdout(["goldbach", "--m-max", "20", "--json"])
        assert json.loads(text)["payload"]["mismatches"] == 1
        assert code == 1
        r = claims.claim_goldbach_equivalence(20)
        found = cert is not None
        assert r.counterexamples == [{"m": 12, "partitions": 1, "certificate_found": found}]
        assert r.verdict == claims.Verdict.FAILS_WITH_COUNTEREXAMPLE
        assert r.notes.startswith("9 even moduli swept, 8 certificates found and re-validated")


class TestEnvelope:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "7", "5", "--json"),
            ("scan", "--m", "5", "--x", "20", "--format", "json"),
            ("claims", "--ids", "C2", "--m-max", "20", "--x", "500", "--format", "json"),
            ("goldbach", "--m-max", "10", "--json"),
        ],
    )
    def test_payload_deterministic_across_runs(self, args):
        first, second = run_cli(*args), run_cli(*args)
        ea, eb = json.loads(first.stdout), json.loads(second.stdout)
        assert ea["payload"] == eb["payload"]
        assert ea["command"] == eb["command"] == "ramify " + " ".join(args)
        assert ea["tool_version"] == eb["tool_version"]

    def test_sorted_keys(self):
        proc = run_cli("check", "7", "5", "--json")
        env = json.loads(proc.stdout)
        assert list(env) == sorted(env)
        assert proc.stdout == json.dumps(env, sort_keys=True, indent=2) + "\n"


def dumped_envelope(argv, payload):
    """The envelope by the dict route: json.dumps of every value, rows as dicts."""
    envelope = {
        "tool_version": __version__,
        "command": "ramify " + " ".join(argv),
        "generated_at": "",
        "payload": payload,
    }
    return json.dumps(envelope, sort_keys=True, indent=2)


def goldbach_row_dicts(ms, counts, certs):
    """The rows as dicts, each certificate an (n, p1, r, p2) tuple or None."""
    return [
        {
            "m": m,
            "partitions": p,
            "certificate": None if c is None else dict(zip(("n", "p1", "r", "p2"), c)),
        }
        for m, p, c in zip(ms, counts, certs)
    ]


def goldbach_payload_by_dicts(m_max):
    """The goldbach payload with the rows as dicts, as the CLI built it
    before it wrote them from templates."""
    primes = prime_table(m_max)
    ms = range(4, m_max + 1, 2)
    counts = [len(goldbach_partitions(m, primes)) for m in ms]
    certs = [admits_strong_ramifier(m, primes) for m in ms]
    certs = [c and (c.n, c.p1, c.r, c.p2) for c in certs]
    rows = goldbach_row_dicts(ms, counts, certs)
    mismatches = sum(bool(p) != (c is not None) for p, c in zip(counts, certs))
    return {"rows": rows, "checked": len(rows), "mismatches": mismatches}


def check_payload_by_dicts(n, m, strong):
    rec = index_of(n, m)
    indices = list(rec.all_indices) if rec else []
    a1, a2 = n % m, m - n % m
    keys = ("m", "n", "p1", "r", "p2") if strong else ("m", "n", "a1", "r", "a2")
    rows = [dict(zip(keys, (m, n, a1, r, a2))) for r in indices]
    if strong and rows and not (naive_is_prime(a1) and naive_is_prime(a2)):
        rows = []
    return {
        "n": n,
        "m": m,
        "strong": strong,
        "character": 1 if indices else 0,
        "is_ramifier": bool(rows),
        "index": indices[0] if indices else None,
        "all_indices": indices,
        "witnesses": rows,
    }


def main_to_file(args, out):
    """cli.main(args + --out out) in this process: (exit code, file text)."""
    code = cli.main([*args, "--out", str(out)])
    return code, out.read_text()


CERT = (5, 5, 6, 5)  # (n, p1, r, p2) of m = 10


class TestJsonRows:
    """The bulk lists written from row templates, against json.dumps of the
    rows as dicts: the same bytes, less the timestamp."""

    @pytest.mark.parametrize(
        "certs",
        [
            [CERT, (7, 7, 8, 5), (7, 7, 12, 7)],
            [None, None, None],
            [None, CERT, None, (98765, 98765, 4321, 24691), None],
            [CERT],
            [None],
            [],
        ],
        ids=["certificates", "nulls", "mixed", "one-certificate", "one-null", "empty"],
    )
    def test_goldbach_rows(self, certs):
        ms = range(4, 4 + 2 * len(certs), 2)
        counts = [i * 7 for i in range(len(certs))]
        got = io.StringIO()
        cli._write_envelope(
            got, ["goldbach"], {"rows": cli._goldbach_rows(ms, counts, certs), "checked": 3}
        )
        want = dumped_envelope(
            ["goldbach"], {"rows": goldbach_row_dicts(ms, counts, certs), "checked": 3}
        )
        assert without_timestamp(got.getvalue()) == without_timestamp(want) + "\n"

    @pytest.mark.parametrize("m_max", [4, 6, 8, 200, 2000])
    def test_goldbach_envelope(self, m_max, tmp_path):
        args = ["goldbach", "--m-max", str(m_max), "--format", "json"]
        out = tmp_path / "goldbach.json"
        code, text = main_to_file(args, out)
        assert code == 0
        want = dumped_envelope(args + ["--out", str(out)], goldbach_payload_by_dicts(m_max))
        assert without_timestamp(text) == without_timestamp(want) + "\n"

    @pytest.mark.parametrize(
        "n, m, strong",
        [
            (7, 5, False),  # one witness
            (17, 5, False),  # none: both lists empty
            (5229, 374, True),  # two strong witnesses
            (5229, 374, False),
            (3819154902, 7655, True),  # indices, but residues not both prime
            (50, 100, False),  # n = m/2: 49 witnesses
        ],
    )
    def test_check_envelope(self, n, m, strong, tmp_path):
        args = ["check", str(n), str(m), "--json"] + ["--strong"] * strong
        out = tmp_path / "check.json"
        code, text = main_to_file(args, out)
        payload = check_payload_by_dicts(n, m, strong)
        assert code == (0 if payload["is_ramifier"] else 1)
        want = dumped_envelope(args + ["--out", str(out)], payload)
        assert without_timestamp(text) == without_timestamp(want) + "\n"

    @pytest.mark.parametrize(
        "args, key, payload",
        [
            (["goldbach", "--m-max", "8", "--json"], "rows", lambda: goldbach_payload_by_dicts(8)),
            (["check", "7", "5", "--json"], "witnesses", lambda: check_payload_by_dicts(7, 5, False)),
            (["check", "7", "5", "--json"], "all_indices", lambda: check_payload_by_dicts(7, 5, False)),
        ],
    )
    def test_out_path_with_the_placeholder_text(self, args, key, payload, tmp_path):
        # the path ends with a quote and the placeholder's text, so the echoed
        # command holds the placeholder's JSON string: a splice at the first
        # occurrence would write the list into the command
        out = tmp_path / ('back\\slash"' + cli._SPLICE.format(key))
        code, text = main_to_file(args, out)
        env = json.loads(text)
        assert env["command"] == "ramify " + " ".join(args + ["--out", str(out)])
        assert without_timestamp(text) == without_timestamp(
            dumped_envelope(args + ["--out", str(out)], payload())
        ) + "\n"


def main_to_stdout(args):
    """cli.main(args) in this process: (exit code, stdout less its timestamp)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, without_timestamp(out.getvalue())


@pytest.fixture(params=[True, False], ids=["unbuffered", "buffered"])
def stdout_buffering(request, monkeypatch):
    """Child processes started with PYTHONUNBUFFERED=1, then without it."""
    if request.param:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


class TestWriter:
    """Each output written into its target as it is built."""

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize(
        "args",
        [
            ["goldbach", "--m-max", "12"],  # five rows and the summary line
            ["goldbach", "--m-max", "12", "--json"],
            ["check", "8", "16", "--json"],  # n = m/2: seven witnesses
            ["check", "8", "16"],
        ],
    )
    def test_bytes_do_not_depend_on_the_batch(self, args, batch, monkeypatch):
        # lists shorter than a batch, as long, and longer by one and more
        want = main_to_stdout(args)
        monkeypatch.setattr(cli, "_BATCH", batch)
        assert main_to_stdout(args) == want

    @pytest.mark.parametrize("count", range(8))
    def test_short_lists_match_json_dumps(self, count, monkeypatch):
        monkeypatch.setattr(cli, "_BATCH", 3)
        certs = [CERT if i % 2 else None for i in range(count)]
        ms, counts = range(4, 4 + 2 * count, 2), range(count)
        got = io.StringIO()
        cli._write_envelope(got, ["goldbach"], {"rows": cli._goldbach_rows(ms, counts, certs)})
        want = dumped_envelope(["goldbach"], {"rows": goldbach_row_dicts(ms, counts, certs)})
        assert without_timestamp(got.getvalue()) == without_timestamp(want) + "\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "50000", "100000"),  # 50,000 witness lines
            ("check", "50000", "100000", "--format", "json"),
            ("scan", "--m", "37", "--x", "20000", "--format", "csv"),
            ("goldbach", "--m-max", "20000"),
        ],
        ids=["check-text", "check-json", "scan-csv", "goldbach-text"],
    )
    def test_stdout_bytes_do_not_depend_on_pythonunbuffered(self, args, monkeypatch):
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        unbuffered = run_cli(*args)
        monkeypatch.delenv("PYTHONUNBUFFERED")
        buffered = run_cli(*args)
        assert unbuffered.returncode == buffered.returncode == 0
        assert without_timestamp(unbuffered.stdout) == without_timestamp(buffered.stdout)
        assert len(buffered.stdout) > 1 << 16

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_closed_stdout_keeps_the_exit_code(self, fmt, stdout_buffering):
        # n = m/2 has 99,999 witnesses, some MB in every format, far over a
        # pipe's 64 KB: the writer is blocked on a full pipe when its reader
        # goes, as under `| head -1`
        proc = popen_cli("check", "100000", "200000", "--format", fmt)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert first in ("n=100000 mod m=200000: character 1, ramifier\n", "{\n", "m,n,a1,r,a2\n")
        assert proc.returncode == 0
        assert stderr == ""

    def test_stdout_closed_before_the_first_write(self, stdout_buffering):
        # an output shorter than one buffer meets the closed pipe only when
        # it is flushed, which must happen inside the command, not at exit
        proc = popen_cli("check", "17", "5")
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == ""

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exit_2(self, where, tmp_path):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "f.json"
        proc = run_cli("check", "7", "5", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(out) in proc.stderr
        assert proc.stdout == ""

    def test_unwritable_out_exit_2_before_the_work(self, tmp_path):
        # the path is checked before the budget, which refuses this scan
        out = tmp_path / "missing" / "f.csv"
        proc = run_cli("scan", "--m", "37", "--x", "200000000", "--format", "csv", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(out) in proc.stderr
        assert not out.parent.exists()

    def test_out_under_a_file_exit_2(self, tmp_path):
        # the probe is a real open, so the message is open's own
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "f.csv"
        proc = run_cli("scan", "--m", "37", "--x", "200000000", "--format", "csv", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: [Errno 20] Not a directory: '{out}'\n"

    def test_existing_out_unchanged_after_exit_3(self, tmp_path):
        out = tmp_path / "out"
        out.write_bytes(b"kept\n")
        proc = run_cli("scan", "--m", "37", "--x", "200000000", "--out", str(out))
        assert proc.returncode == 3
        assert out.read_bytes() == b"kept\n"

    def test_dangling_symlink_out_no_file_after_exit_3(self, tmp_path):
        # the probe creates the link's target and must remove it again
        (tmp_path / "dangling").symlink_to("target.csv")
        proc = run_cli("scan", "--m", "37", "--x", "200000000", "--out", str(tmp_path / "dangling"))
        assert proc.returncode == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling"]
        assert not (tmp_path / "dangling").exists()

    def test_dangling_symlink_out_writes_the_target(self, tmp_path):
        (tmp_path / "link").symlink_to("target.json")
        proc = run_cli("check", "7", "5", "--json", "--out", str(tmp_path / "link"))
        assert proc.returncode == 0 and proc.stdout == ""
        assert (tmp_path / "link").is_symlink()
        written = json.loads((tmp_path / "target.json").read_text())["payload"]
        assert written == payload_of(run_cli("check", "7", "5", "--json"))

    @pytest.mark.parametrize(
        "args",
        [
            ("scan", "--m", "37", "--x", "200000000", "--format", "csv"),
            ("check", "1000000000", "2000000000", "--format", "json"),
            ("goldbach", "--m-max", str(2**27)),
            ("claims", "--ids", "C8", "--x", str(2**25 - 1)),
            # the first x whose row, to x for C10 and to x + 2m_max for C11,
            # passes the charge of counting.rows
            ("claims", "--ids", "C10", "--x", str(DEFAULT_BUDGET_BITS // _ROW_BITS_PER_N)),
            ("claims", "--ids", "C11", "--m-max", "2", "--x",
             str(DEFAULT_BUDGET_BITS // _ROW_BITS_PER_N - 4)),
        ],
        ids=["scan", "check", "goldbach", "claims", "claims-C10", "claims-C11"],
    )
    def test_no_out_file_after_exit_3(self, args, tmp_path):
        # every budget check runs before the output file is opened
        out = tmp_path / "out"
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 3
        assert "budget" in proc.stderr
        assert not out.exists()
