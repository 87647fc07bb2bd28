# Tier-1 regression check for vaqctl's command-line surface: an unknown
# subcommand must exit 2 with the usage text on stderr, and the usage
# must list every public subcommand — `traffic` included, so the front
# door demo cannot silently fall out of the CLI. A malformed numeric flag
# or --scenario index, a flag the subcommand does not read and a value
# flag with no value must exit 2 too, naming the flag, before any work.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -DWORKDIR=<work dir>
#         -P vaqctl_usage_check.cmake

if(NOT DEFINED VAQCTL OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DVAQCTL=<path to vaqctl> -DWORKDIR=<dir>")
endif()

execute_process(
  COMMAND ${VAQCTL} no-such-subcommand
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "vaqctl with an unknown subcommand exited ${rc}, expected 2")
endif()
string(FIND "${err}" "unknown subcommand" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl stderr does not name the unknown subcommand: ${err}")
endif()

foreach(subcommand ingest ls rm topk sql metrics serve trace recover
    cluster cascade bai traffic chaos)
  string(FIND "${err}" "${subcommand}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "vaqctl usage output is missing subcommand '${subcommand}'")
  endif()
endforeach()

# Each case is "<flag>|<command line>": the command must exit 2 with
# <flag> named on stderr. Every value is one the parse rejects — garbage,
# trailing characters, a sign on an unsigned field, a value out of the
# field's range, or a cluster kill value outside its domain (a negative
# --kill-at, a --kill-node below -1 or past the last of the
# nodes x (1 + replicas) hosts) — or the flag is one the subcommand
# (or its mode: durable or in-memory serve, chaos sweep or replay) does
# not read, or a value flag is last with no value (--selfcheck is the
# one flag that takes none). None is a valid huge --threads, --workers
# or --nodes, which would start that many threads.
file(REMOVE_RECURSE "${WORKDIR}")
set(bad_flag_cases
  "--seed|chaos --trials 1 --seed abc"
  "--seed|chaos --trials 1 --seed -1"
  "--seed|chaos --trials 1 --seed 18446744073709551616"
  "--seed|metrics --seed 7x"
  "--qps|traffic --duration-min 0.1 --qps 2x"
  "--videos|cascade --videos 4294967297"
  "--scenario|ingest --catalog ${WORKDIR} --name q --scenario youtube:3x"
  "--recal|cascade --recal 0.5"
  "--sed|metrics --seed 7 --sed 3 --selfcheck"
  "--seed|metrics --selfcheck --seed"
  "--name|ingest --catalog ${WORKDIR} --scenario youtube:3 --name"
  "--crash-after|serve --queries 1 --streams 1 --crash-after 5"
  "--threads|serve --checkpoint-dir ${WORKDIR} --threads 2"
  "--seed|chaos --replay ${WORKDIR}/repro.json --seed 3"
  "--kill-at|cluster --kill-node 1 --kill-at -1"
  "--kill-node|cluster --kill-node -3"
  "--kill-node|cluster --nodes 4 --replicas 1 --kill-node 99 --kill-at 0"
  "--kill-node|cluster --nodes 4 --replicas 1 --kill-node 8")
foreach(case IN LISTS bad_flag_cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} flag)
  math(EXPR rest "${bar} + 1")
  string(SUBSTRING "${case}" ${rest} -1 command_line)
  separate_arguments(command_args UNIX_COMMAND "${command_line}")
  execute_process(
    COMMAND ${VAQCTL} ${command_args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "vaqctl ${command_line} exited ${rc}, expected 2\n${err}")
  endif()
  string(FIND "${err}" "${flag}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "vaqctl ${command_line}: stderr does not name ${flag}: ${err}")
  endif()
endforeach()
if(EXISTS "${WORKDIR}")
  message(FATAL_ERROR "a rejected command wrote ${WORKDIR}")
endif()

message(STATUS "vaqctl usage: exit 2 on unknown subcommand and on "
               "malformed, unknown or valueless flags, all subcommands "
               "listed")
