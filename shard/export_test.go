package shard

// LineReaderSize exports the stream reader's buffer size to the external
// tests.
const LineReaderSize = lineReaderSize
