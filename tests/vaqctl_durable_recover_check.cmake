# Tier-1 check of the CLI recovery contract: a durable `vaqctl serve`
# that crashes part-way, finished by `vaqctl recover` from its checkpoint
# directory, prints what an uncrashed durable serve prints — every
# result, the stats line and every logical metric family. Only the
# session banners and the vaq_ckpt_* families, whose counts depend on
# where the crash fell, may differ.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -DWORKDIR=<scratch dir> -P vaqctl_durable_recover_check.cmake

if(NOT DEFINED VAQCTL OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DVAQCTL=<path to vaqctl> -DWORKDIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Runs vaqctl with the given arguments; fails the check on a non-zero
# exit, else stores its stdout in `out_var`.
function(run_vaqctl out_var)
  execute_process(
    COMMAND ${VAQCTL} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "vaqctl ${args} failed (rc=${rc}): ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# `text` without the lines that may differ between a recovered and an
# uncrashed session.
function(comparable out_var text)
  string(REGEX REPLACE
    "\n(durable serve:|recovered from |resumed at |# TYPE vaq_ckpt_|vaq_ckpt_)[^\n]*"
    "" text "\n${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

run_vaqctl(crashed serve --checkpoint-dir ${WORKDIR}/A --crash-after 100
           --format both)
string(FIND "${crashed}" "crashed after 100 of " found)
if(found EQUAL -1)
  message(FATAL_ERROR "serve --crash-after 100 did not crash:\n${crashed}")
endif()

run_vaqctl(recovered recover --checkpoint-dir ${WORKDIR}/A --format both)
string(FIND "${recovered}" "resumed at clip advance 100 of " found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "recover did not resume at clip advance 100:\n${recovered}")
endif()

run_vaqctl(uncrashed serve --checkpoint-dir ${WORKDIR}/B --format both)
string(FIND "${uncrashed}" "stats: " found)
if(found EQUAL -1)
  message(FATAL_ERROR "the uncrashed serve printed no stats:\n${uncrashed}")
endif()

comparable(recovered_view "${recovered}")
comparable(uncrashed_view "${uncrashed}")
if(NOT recovered_view STREQUAL uncrashed_view)
  file(WRITE "${WORKDIR}/recovered.txt" "${recovered_view}")
  file(WRITE "${WORKDIR}/uncrashed.txt" "${uncrashed_view}")
  message(FATAL_ERROR
    "vaqctl recover differs from an uncrashed durable serve; compare "
    "${WORKDIR}/recovered.txt with ${WORKDIR}/uncrashed.txt")
endif()

message(STATUS "vaqctl recover: identical to an uncrashed durable serve")
