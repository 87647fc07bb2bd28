# Replays one committed chaos reproducer (tests/golden/chaos/*.json):
# `vaqctl chaos --replay` must exit 0 and report that every oracle held.
# Each file is a trial that once failed or aborted, kept so the fix stays
# pinned without waiting for the daily sweep to draw its seed again.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -DREPLAY=<reproducer.json>
#         -DOUT=<where a new reproducer goes on failure>
#         -P chaos_replay_check.cmake

foreach(var VAQCTL REPLAY OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${VAQCTL} chaos --replay ${REPLAY} --out ${OUT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "vaqctl chaos --replay ${REPLAY} exited ${rc}:\n${out}${err}")
endif()
string(FIND "${out}" "all oracles held" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl chaos --replay ${REPLAY} did not report 'all oracles held':\n"
    "${out}${err}")
endif()

message(STATUS "chaos replay ${REPLAY}: all oracles held")
