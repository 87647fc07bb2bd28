# Tier-1 check for `vaqctl topk` at its input boundary: over a catalog
# holding one ingested video, a query for an action no video ingested
# must fail with NotFound and a non-zero exit (not print "queried 0
# videos" and exit 0), while a query for the ingested action still
# succeeds.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -DWORKDIR=<scratch dir> -P vaqctl_topk_check.cmake

if(NOT DEFINED VAQCTL OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DVAQCTL=<path to vaqctl> -DWORKDIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND ${VAQCTL} ingest --catalog ${WORKDIR} --name demo
          --scenario youtube:1 --seed 5
  OUTPUT_VARIABLE ingest_out
  ERROR_VARIABLE ingest_err
  RESULT_VARIABLE ingest_rc)
if(NOT ingest_rc EQUAL 0)
  message(FATAL_ERROR "vaqctl ingest failed (rc=${ingest_rc}): ${ingest_err}")
endif()

execute_process(
  COMMAND ${VAQCTL} topk --catalog ${WORKDIR} --action jumping
  OUTPUT_VARIABLE missing_out
  ERROR_VARIABLE missing_err
  RESULT_VARIABLE missing_rc)
if(missing_rc EQUAL 0)
  message(FATAL_ERROR
    "vaqctl topk for an action no video ingested exited 0: ${missing_out}")
endif()
string(FIND "${missing_err}" "NotFound" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl topk for an action no video ingested did not report "
    "NotFound: ${missing_err}")
endif()

execute_process(
  COMMAND ${VAQCTL} topk --catalog ${WORKDIR} --action "washing dishes"
          --objects person --k 2
  OUTPUT_VARIABLE present_out
  ERROR_VARIABLE present_err
  RESULT_VARIABLE present_rc)
if(NOT present_rc EQUAL 0)
  message(FATAL_ERROR
    "vaqctl topk for the ingested action failed (rc=${present_rc}): "
    "${present_err}")
endif()
string(FIND "${present_out}" "queried 1 videos" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl topk for the ingested action did not query the video: "
    "${present_out}")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
message(STATUS "vaqctl topk: NotFound for a type no video has, OK otherwise")
