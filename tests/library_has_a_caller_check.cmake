# Tier-1 check that library code has a caller: every header under
# src/*/ is included by some program or by other library code, so no
# public entry point is kept alive by its own unit test alone. The
# callers that count are the files under src/, tools/, bench/,
# perfbench/ and examples/. A header's own .cc does not count, and
# neither does the umbrella src/vaq/vaq.h, which includes everything;
# an example that uses a header includes it by name.
#
# Fails when a header src/<dir>/<name>.h is #included by no such file
# other than src/<dir>/<name>.cc and src/vaq/vaq.h.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repository root> -P library_has_a_caller_check.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

# Every (includer, included) pair among the caller files, as
# "<includer>|<included>" with paths relative to the repository root
# and to src/ respectively.
set(edges "")
foreach(dir src tools bench perfbench examples)
  file(GLOB_RECURSE files "${SOURCE_DIR}/${dir}/*.h" "${SOURCE_DIR}/${dir}/*.cc"
       "${SOURCE_DIR}/${dir}/*.cpp")
  foreach(path IN LISTS files)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
    file(STRINGS "${path}" includes REGEX "^[ \t]*#[ \t]*include[ \t]+\"")
    foreach(line IN LISTS includes)
      if(line MATCHES "#[ \t]*include[ \t]+\"([^\"]+)\"")
        list(APPEND edges "${rel}|${CMAKE_MATCH_1}")
      endif()
    endforeach()
  endforeach()
endforeach()

file(GLOB headers RELATIVE "${SOURCE_DIR}/src" "${SOURCE_DIR}/src/*/*.h")
list(SORT headers)

set(orphans "")
foreach(header IN LISTS headers)
  string(REGEX REPLACE "\\.h$" ".cc" own_cc "src/${header}")
  set(callers "")
  foreach(edge IN LISTS edges)
    string(FIND "${edge}" "|" bar)
    string(SUBSTRING "${edge}" 0 ${bar} includer)
    math(EXPR start "${bar} + 1")
    string(SUBSTRING "${edge}" ${start} -1 included)
    if(NOT included STREQUAL header)
      continue()
    endif()
    if(includer STREQUAL own_cc OR includer STREQUAL "src/vaq/vaq.h")
      continue()
    endif()
    list(APPEND callers "${includer}")
  endforeach()
  if(NOT callers)
    list(APPEND orphans "src/${header}")
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  " report)
  message(FATAL_ERROR "library headers no program or library code includes "
                      "(delete them, or move what a test needs under "
                      "tests/):\n  ${report}")
endif()
list(LENGTH headers count)
message(STATUS "library has a caller: each of the ${count} headers under "
               "src/*/ is included outside its own .cc")
