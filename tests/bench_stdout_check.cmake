# Tier-1 check that a bench's (or a vaqctl command's) stdout is unchanged:
# reruns the binary and compares what it prints with a committed baseline
# (bench/baselines/stdout/, tests/golden/). The benches are deterministic
# apart from their wall-clock columns, so any other difference is a
# behaviour change.
#
# Invoked as:
#   cmake -DBENCH=<binary> [-DARGS="<arg> <arg>..."] -DBASELINE=<file>
#         [-DCSV_DROP=<col>,<col>...] [-DUPDATE=1] -P bench_stdout_check.cmake
#
# ARGS is split like a shell command line. Without CSV_DROP the full
# stdout is compared. With it, only the bench's
# "csv," lines are, minus the named (wall-clock) columns, which the first
# csv line names. UPDATE=1 rewrites the baseline instead of comparing; use
# it only alongside an intended, documented output change.

if(NOT DEFINED BENCH OR NOT DEFINED BASELINE)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> -DBASELINE=<file>")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BENCH} ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (rc=${rc}): ${err}")
endif()

if(DEFINED CSV_DROP AND NOT CSV_DROP STREQUAL "")
  string(REPLACE "," ";" drop_names "${CSV_DROP}")
  string(REGEX MATCHALL "csv,[^\n]*" csv_lines "${out}")
  set(drop_indices "")
  set(kept "")
  foreach(line IN LISTS csv_lines)
    string(REPLACE "," ";" fields "${line}")
    if(drop_indices STREQUAL "")
      foreach(name IN LISTS drop_names)
        list(FIND fields "${name}" index)
        if(index EQUAL -1)
          message(FATAL_ERROR "csv header of ${BENCH} has no column '${name}'")
        endif()
        list(APPEND drop_indices ${index})
      endforeach()
    endif()
    list(REMOVE_AT fields ${drop_indices})
    string(REPLACE ";" "," line "${fields}")
    string(APPEND kept "${line}\n")
  endforeach()
  set(out "${kept}")
endif()

if(UPDATE)
  file(WRITE "${BASELINE}" "${out}")
  message(STATUS "rewrote ${BASELINE}")
  return()
endif()

file(READ "${BASELINE}" expected)
if(NOT out STREQUAL expected)
  get_filename_component(stem "${BASELINE}" NAME)
  set(actual_path "${CMAKE_CURRENT_BINARY_DIR}/${stem}.actual")
  file(WRITE "${actual_path}" "${out}")
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${BASELINE}; the actual output is in "
    "${actual_path} (diff the two)")
endif()
message(STATUS "${BENCH}: stdout matches ${BASELINE}")
