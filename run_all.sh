#!/bin/sh
# Runs every experiment binary at full measurement windows, logging output.
set -x
for b in tab4_loc tab5_params tab6_preemption sec54_switch tab7_threadops \
         fig5_schbench fig6_timeslice fig7a_single fig7b_multi \
         fig8a_memcached fig8b_rocksdb ablate_dispatcher ablate_quantum \
         slo_sweep chaos_sweep netbench; do
  echo "### $b"
  ./target/release/$b 2>/dev/null
  echo "### $b exit=$?"
done

# Golden byte-identity gate: the simulation is deterministic, so the
# figure CSVs a run just produced must match the committed goldens byte
# for byte. Any drift means a change altered scheduling decisions (the
# batched event/policy/NIC paths are required to be decision-identical
# to their serial forms) — fail loudly instead of silently shipping new
# numbers. tab4_loc counts policy source lines instead: its drift means
# a policy edit that did not regenerate it.
status=0
for f in fig5_schbench fig6_timeslice fig7a_single fig7a_tput slo_sweep \
         chaos_sweep chaos_sweep_dataplane netbench tab4_loc; do
  if git diff --quiet -- "results/$f.csv"; then
    echo "### golden $f.csv: identical"
  else
    echo "### golden $f.csv: DRIFT (regenerated output differs from committed golden)"
    git --no-pager diff -- "results/$f.csv"
    status=1
  fi
done
exit $status
