# Tier-1 check that the library has one wall clock: `VAQ_TRACE_SPAN`
# (src/obs/trace.{h,cc}) is the only code under src/ that names a
# std::chrono clock, and no clock is pinned anywhere. Wall time reaches
# outputs only through the `vaq_wall_*` families, which identity checks
# and checkpoints leave out, so nothing needs a pluggable clock.
#
# Fails when
#   - a file under src/ other than src/obs/trace.h and src/obs/trace.cc
#     names steady_clock, system_clock or high_resolution_clock;
#   - SetClock appears under src/, tools/, bench/, tests/ or examples/
#     (this script aside).
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repository root> -P single_clock_check.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

set(violations "")

file(GLOB_RECURSE library_files "${SOURCE_DIR}/src/*")
foreach(path IN LISTS library_files)
  file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
  if(rel STREQUAL "src/obs/trace.h" OR rel STREQUAL "src/obs/trace.cc")
    continue()
  endif()
  file(READ "${path}" text)
  foreach(clock steady_clock system_clock high_resolution_clock)
    string(FIND "${text}" "${clock}" found)
    if(NOT found EQUAL -1)
      list(APPEND violations "${rel} names ${clock}")
    endif()
  endforeach()
endforeach()

set(scanned "")
foreach(dir src tools bench tests examples)
  file(GLOB_RECURSE files "${SOURCE_DIR}/${dir}/*")
  list(APPEND scanned ${files})
endforeach()
foreach(path IN LISTS scanned)
  if(path STREQUAL CMAKE_CURRENT_LIST_FILE)
    continue()
  endif()
  file(READ "${path}" text)
  string(FIND "${text}" "SetClock" found)
  if(NOT found EQUAL -1)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
    list(APPEND violations "${rel} names SetClock")
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "more than one clock:\n  ${report}")
endif()
message(STATUS "one clock: only src/obs/trace.{h,cc} read a std::chrono clock")
