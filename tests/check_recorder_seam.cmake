# Keeps the recording seam: the steal protocols (src/ws/algo_*.cpp) record
# every event through their ws::Recorder (src/ws/recorder.hpp) and never
# reach the trace, the observer or a metric registry directly.
#
#   cmake -DSRC=<repo>/src -P tests/check_recorder_seam.cmake
file(GLOB algos "${SRC}/ws/algo_*.cpp")
if(NOT algos)
  message(FATAL_ERROR "no ws/algo_*.cpp under SRC=${SRC}")
endif()
set(hits "")
foreach(f IN LISTS algos)
  file(STRINGS "${f}" lines
       REGEX "cfg_?\\.(trace|obs)|obs_|obs::|Registry|trace::")
  foreach(line IN LISTS lines)
    string(APPEND hits "\n  ${f}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "telemetry sink reached outside ws::Recorder:${hits}")
endif()
