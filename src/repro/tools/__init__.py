"""Command-line tools.

* ``python -m repro.tools.inspect <file.rmf>`` — inspect a container:
  sequences, descriptors, placement tables, categories, playback check.
* ``python -m repro.tools.check [--all]`` — the static verification
  gate: graph rules over the exemplar media graphs, then self-lint and
  dataflow over the library's own sources.
"""
