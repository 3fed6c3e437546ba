"""The output digest ``tools/exact_digest.py`` on a reduced grid."""

import hashlib
import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "exact_digest.py"
_spec = importlib.util.spec_from_file_location("exact_digest", _TOOL)
exact_digest = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = exact_digest  # the Grid dataclass looks its module up
_spec.loader.exec_module(exact_digest)

SMALL = exact_digest.Grid(ps=(0.3, 0.5), Ls=(2, 100), Ns=(1, 1000),
                          steps=((1, 0, 1), (200, 3000, 0)), drifts=(0.0, 2.0),
                          sigma2s=(2.0,), times=(0.01, 10.0), panels=1,
                          size_laws=("deterministic", "exponential"), r_outs=(0.98, 1.02, 50.0),
                          initial_queues=(0.0, 1.0), duration=200.0)
#: The ``all`` digest of SMALL, with call labels that leave out the
#: ``SeriesControl`` argument. Taken when a loss_pdf point's terms became
#: c e^{x b} from two node vectors of the wall record: only loss_pdf values
#: moved (from 56b1ef9d...f69947; 573 of the full grid's 1920 stayed
#: bit-equal, and the largest move was 3.2e-9 of its curve's peak).
PINNED = "456c6f55b6524722e0e3eb646e5dd55b5309f02126c0f27b7616c4dcf16ef300"
#: The ``discrete`` digest of SMALL, unchanged since the continuum layer
#: moved onto floats (v, tau).
PINNED_DISCRETE = "8c9ee76cc4e2abfe7af172d22d3bdbb8052869ace60b946facdaf92e8a8ba778"
#: The ``packet`` digest of SMALL, taken when the packet kernel began to draw
#: one sub-chunk at a time, packet sizes on a stream of their own: on the
#: full grid the deterministic-size runs moved only in the last bit of the
#: offered volume, and the exponential-size runs took new sizes.
PINNED_PACKET = "f60ca24723cbde72b2e981a8ce0975248b72e91854860a35cd1336c96fe19767"
#: The ``correlator`` digest of SMALL, taken when both correlators came to
#: read only v and the reduced times: at sigma2 = 2 every loss_correlator
#: value kept its bits, and two of the eight window asymptotes moved by one ulp.
PINNED_CORRELATOR = "bf7db17d22fdd8c5a03da2182be6bc6380bed79de1cd948913cde853eada23f4"
#: The ``walk`` digest of SMALL, taken while each path chunk's byte maps were
#: still composed by the blocked scan, and unchanged by the log-depth scan.
PINNED_WALK = "9568970c693dc57cc87bc30834dc77b6014edbde50ae268aa9765caf8fe495a8"


def _clear_package_caches():
    for module in (exact_digest.D, exact_digest.F, exact_digest.F.numerics):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_cold_and_warm_runs_agree():
    _clear_package_caches()
    cold = exact_digest.digests(SMALL)
    assert exact_digest.digests(SMALL) == cold
    # A packet run feeds three grids of 1001 samples and seven totals; the
    # 2 x 8 x 2 + 1 paths feed their two end states and 37067 loss steps.
    assert {name: count for name, (count, _) in cold.items()} == {
        "discrete": 2 * 2 * (1 + 2 * 6 + 2), "continuum": 2 * 2 * (4 + 8), "all": 108,
        "packet": 2 * 3 * 2 * (3 * 1001 + 7), "correlator": 2 * 4 * 2,
        "walk": 2 * 33 + 37067}


def test_reduced_grid_digest_is_pinned():
    rows = exact_digest.digests(SMALL)
    assert rows["all"][1] == PINNED
    assert rows["discrete"][1] == PINNED_DISCRETE


def test_packet_digest_is_pinned():
    assert exact_digest.digests(SMALL)["packet"][1] == PINNED_PACKET


def test_correlator_digest_is_pinned():
    assert exact_digest.digests(SMALL)["correlator"][1] == PINNED_CORRELATOR


def test_walk_digest_is_pinned():
    assert exact_digest.digests(SMALL)["walk"][1] == PINNED_WALK


def test_main_prints_one_row_per_part(capsys, monkeypatch):
    monkeypatch.setattr(exact_digest, "Grid", lambda: SMALL)
    assert exact_digest.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [[name, str(count), sha]
                    for name, (count, sha) in exact_digest.digests(SMALL).items()]



def test_records_file_rehashes_to_each_part(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exact_digest, "Grid", lambda: SMALL)
    path = tmp_path / "records.txt"
    assert exact_digest.main(["--records", str(path)]) == 0
    rows = {row.split()[0]: row.split()[1:] for row in capsys.readouterr().out.splitlines()}
    parts = {}
    for line in path.read_text().splitlines(keepends=True):
        part, text = line.split(" ", 1)
        parts.setdefault(part, []).append(text)
    assert list(parts) == ["discrete", "continuum", "packet", "correlator", "walk"]
    for part, texts in parts.items():
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == rows[part][1]
    # Each record is a label, the call's arguments and one hex value per output.
    F = exact_digest.F
    moment = F.loss_moment(F.FpParams(a=0.0, sigma2=2.0), F.SeriesControl(), 2, 0.01)
    assert parts["continuum"][0].startswith("moment (")
    assert parts["continuum"][0].endswith(f" {moment.hex()}\n")


def test_compare_lists_the_moved_records(tmp_path, capsys):
    old = ["discrete rate (DiscreteQueueParams(p=0.3, L=2),) 0x1.0000000000000p-1\n",
           "continuum moment (FpParams(a=-1.0, sigma2=0.5), 2, 100.0) 0x1.0000000000000p+0\n",
           "continuum p_loss (FpParams(a=-1.0, sigma2=0.5), 100.0) InversionError\n",
           "walk walk (0.5, 20, 10007, 0) 0x0.0p+0 0x1.4000000000000p+4 0x1.8000000000000p+1\n"]
    new = [old[0],
           old[1].replace("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
           old[2].replace("InversionError", "0x1.0000000000000p-1"),
           old[3].replace("0x1.4000000000000p+4", "0x1.5000000000000p+4")]
    paths = [tmp_path / "old.txt", tmp_path / "new.txt", tmp_path / "other.txt"]
    paths[0].write_text("".join(old))
    paths[1].write_text("".join(new))
    assert exact_digest.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "continuum moment (FpParams(a=-1.0, sigma2=0.5), 2, 100.0) 2.22e-16 "
        "0x1.0000000000000p+0 -> 0x1.0000000000001p+0",
        "continuum p_loss (FpParams(a=-1.0, sigma2=0.5), 100.0) inf "
        "InversionError -> 0x1.0000000000000p-1",
        "walk walk (0.5, 20, 10007, 0) 0.05",
        "discrete moved 0 of 1 records",
        "continuum moved 2 of 2 records",
        "walk moved 1 of 1 records"]
    # Another grid, or one record short: the files do not compare.
    paths[2].write_text("".join(old).replace("100.0)", "10.0)"))
    assert exact_digest.main(["--compare", str(paths[0]), str(paths[2])]) == 1
    assert capsys.readouterr().out.startswith("grids differ: continuum moment")
    paths[2].write_text("".join(old[:3]))
    assert exact_digest.main(["--compare", str(paths[2]), str(paths[0])]) == 1
    assert capsys.readouterr().out == f"grids differ: {paths[0]} has more records\n"
