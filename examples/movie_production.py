"""Movie production: the paper's Figure 4 example, end to end.

Reconstructs the worked example of §4.3: two video shots and two audio
tracks are refined through derivations (cut, cut, fade, concatenate) and
assembled into a multimedia object whose timeline matches Figure 4(b) —
music under everything, narration entering at the one-minute mark,
picture = cut1 + 10 s fade + cut2.

Everything before the final expansion is non-destructive: only derivation
objects (a few hundred bytes) are created.

Run:  python examples/movie_production.py
"""

from repro.bench.reporting import format_bytes, print_table
from repro.bench.workloads import figure4_production
from repro.engine import CostModel, Player


def main() -> None:
    # Scale 0.1 -> a 13-second production with the paper's proportions.
    production = figure4_production(width=120, height=90, scale=0.1)
    multimedia = production.multimedia
    editor = production.editor

    # -- the instance diagram of Figure 4(a), as provenance ----------------
    print("production steps (derivation objects only, nothing expanded):")
    for step in editor.steps(production.video3):
        print(f"  {step}")

    chain_bytes = editor.total_derivation_bytes(production.video3)
    print(f"\nwhole derivation chain: {format_bytes(chain_bytes)}")

    # -- the timeline of Figure 4(b) ----------------------------------------
    print()
    print(multimedia.timeline_diagram(width=56))

    rows = [
        (label, interval.start.to_timestamp(), interval.end.to_timestamp())
        for label, interval in multimedia.timeline()
    ]
    print_table(("component", "start", "end"), rows, title="\ncomposition")

    print("\nAllen relations:")
    print(f"  audio2 vs audio1: {multimedia.relation('audio2', 'audio1').value}")
    print(f"  video3 vs audio1: {multimedia.relation('video3', 'audio1').value}")

    # -- expansion: the derived picture becomes actual frames ----------------
    expanded = production.video3.expand()
    stream = expanded.stream()
    print(f"\nexpanded video3: {len(stream)} frames, "
          f"{format_bytes(stream.total_size())} "
          f"({stream.total_size() // max(chain_bytes, 1)}x the derivation chain)")

    # -- play the composition -------------------------------------------------
    report = Player(CostModel(bandwidth=80_000_000)).play(multimedia)
    print(f"\nplayback: {report.summary()}")


if __name__ == "__main__":
    main()
