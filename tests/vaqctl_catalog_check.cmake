# Tier-1 check of the catalog's trust boundary through `vaqctl`:
#
#   * a video name that would leave the catalog directory
#     (`--name ../escaped`) is refused by `ingest` and `rm` with a
#     non-zero exit, and nothing outside the catalog is written or
#     deleted;
#   * after a good ingest, flipping one byte in the middle of the video's
#     file makes `topk` exit 1 with Corruption on stderr (not abort), and
#     makes `ls` list the video as unreadable.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -DWORKDIR=<scratch dir> -P vaqctl_catalog_check.cmake

if(NOT DEFINED VAQCTL OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DVAQCTL=<path to vaqctl> -DWORKDIR=<dir>")
endif()

set(catalog "${WORKDIR}/catalog")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${catalog}")

# --- Names outside the catalog ------------------------------------------
execute_process(
  COMMAND ${VAQCTL} ingest --catalog ${catalog} --name ../escaped
          --scenario youtube:1 --seed 5
  OUTPUT_VARIABLE escape_out
  ERROR_VARIABLE escape_err
  RESULT_VARIABLE escape_rc)
if(escape_rc EQUAL 0)
  message(FATAL_ERROR "vaqctl ingest --name ../escaped exited 0")
endif()
if(EXISTS "${WORKDIR}/escaped")
  message(FATAL_ERROR
    "vaqctl ingest --name ../escaped wrote outside the catalog")
endif()

# A directory beside the catalog, shaped like a video of the old layout,
# must survive `rm --name ../escaped`.
file(WRITE "${WORKDIR}/escaped/index.bin" "keep")
execute_process(
  COMMAND ${VAQCTL} rm --catalog ${catalog} --name ../escaped
  OUTPUT_VARIABLE rm_out
  ERROR_VARIABLE rm_err
  RESULT_VARIABLE rm_rc)
if(rm_rc EQUAL 0 OR NOT EXISTS "${WORKDIR}/escaped/index.bin")
  message(FATAL_ERROR
    "vaqctl rm --name ../escaped reached outside the catalog "
    "(rc=${rm_rc}): ${rm_out}${rm_err}")
endif()

# --- A damaged video file -----------------------------------------------
execute_process(
  COMMAND ${VAQCTL} ingest --catalog ${catalog} --name demo
          --scenario youtube:1 --seed 5
  OUTPUT_VARIABLE ingest_out
  ERROR_VARIABLE ingest_err
  RESULT_VARIABLE ingest_rc)
if(NOT ingest_rc EQUAL 0)
  message(FATAL_ERROR "vaqctl ingest failed (rc=${ingest_rc}): ${ingest_err}")
endif()
set(video "${catalog}/demo")
if(NOT EXISTS "${video}" OR IS_DIRECTORY "${video}")
  message(FATAL_ERROR "vaqctl ingest did not write one file per video")
endif()

# Overwrite the middle byte with a different one, in place.
file(SIZE "${video}" size)
math(EXPR middle "${size} / 2")
file(READ "${video}" old_byte OFFSET ${middle} LIMIT 1 HEX)
if(old_byte STREQUAL "55")
  set(new_char "*")
else()
  set(new_char "U")
endif()
execute_process(
  COMMAND sh -c "printf '${new_char}' | dd of='${video}' bs=1 seek=${middle} count=1 conv=notrunc"
  RESULT_VARIABLE dd_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "could not overwrite byte ${middle} of ${video}")
endif()

execute_process(
  COMMAND ${VAQCTL} topk --catalog ${catalog} --action "washing dishes"
  OUTPUT_VARIABLE topk_out
  ERROR_VARIABLE topk_err
  RESULT_VARIABLE topk_rc)
if(NOT topk_rc EQUAL 1)
  message(FATAL_ERROR
    "vaqctl topk over a damaged video exited ${topk_rc}, not 1: "
    "${topk_out}${topk_err}")
endif()
string(FIND "${topk_err}" "Corruption" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl topk over a damaged video did not report Corruption: "
    "${topk_err}")
endif()

execute_process(
  COMMAND ${VAQCTL} ls --catalog ${catalog}
  OUTPUT_VARIABLE ls_out
  ERROR_VARIABLE ls_err
  RESULT_VARIABLE ls_rc)
string(FIND "${ls_out}" "<unreadable: Corruption" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "vaqctl ls did not list the damaged video as unreadable "
    "(rc=${ls_rc}): ${ls_out}${ls_err}")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
message(STATUS "vaqctl catalog: names stay inside, damage is Corruption")
