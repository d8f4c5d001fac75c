import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
# Run as a script, so no bytecode is written next to it.
compare_file = runpy.run_path(str(SCRIPT))["compare_file"]


def test_compare_file_reports_the_largest_difference_and_how_many_cells_moved():
    parent = b"round,device_id,local_loss,flag\n" \
        b"0,1,0.5,ok\n0,2,0.25,ok\n1,1,0.125,ok\n1,2,1.0,ok\n"
    change = parent.replace(b"0.25", b"0.2500000000000001") \
        .replace(b"1,2,1.0,ok", b"1,2,1.5,no")
    assert compare_file("rounds.csv", parent, parent) == "byte-identical"
    assert compare_file("rounds.csv", parent, change) == \
        "differs: local_loss 0.5 in 2 of 4 cells, flag 1 cells differ"
