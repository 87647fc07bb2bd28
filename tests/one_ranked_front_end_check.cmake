# Tier-1 check that ranked statements have one front end: the
# WITH RECALL plan count (cascade::CountPlan) is made in one place, the
# query layer's ranked-statement step, and the per-video identifier seed
# (offline::PerVideoIdentifierSeed) is derived in one place, the offline
# per-video step. Every executor (the single-video statement, the
# cluster coordinator, standing admission) reaches them through those
# steps instead of repeating the policy.
#
# Fails when `CountPlan(` or `PerVideoIdentifierSeed(` is called from
# more than one line under src/. Comment lines and the declaration and
# definition (the name preceded by its return type) are not calls.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repository root> -P one_ranked_front_end_check.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

file(GLOB_RECURSE library_files "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cc")
list(SORT library_files)

set(violations "")
foreach(name CountPlan PerVideoIdentifierSeed)
  set(calls "")
  foreach(path IN LISTS library_files)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
    # One list element per source line: the characters CMake's list
    # splitting treats specially are masked first.
    file(READ "${path}" text)
    string(REPLACE "\\" "<bs>" text "${text}")
    string(REPLACE ";" "<semi>" text "${text}")
    string(REPLACE "[" "<lb>" text "${text}")
    string(REPLACE "]" "<rb>" text "${text}")
    string(REPLACE "\n" ";" lines "${text}")
    set(number 0)
    foreach(line IN LISTS lines)
      math(EXPR number "${number} + 1")
      string(FIND "${line}" "${name}(" found)
      if(found EQUAL -1)
        continue()
      endif()
      if(line MATCHES "^[ \t]*//")
        continue()
      endif()
      if(line MATCHES "^[ \t]*(inline[ \t]+)?(void|uint64_t)[ \t]+${name}\\(")
        continue()
      endif()
      list(APPEND calls "${rel}:${number}")
    endforeach()
  endforeach()
  list(LENGTH calls count)
  if(count GREATER 1)
    list(JOIN calls ", " where)
    list(APPEND violations "${name} is called from ${count} places: ${where}")
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "more than one ranked-statement front end:\n  ${report}")
endif()
message(STATUS "one ranked front end: CountPlan and PerVideoIdentifierSeed "
               "are each called from one place")
