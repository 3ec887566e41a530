package storage

// LiveFiles returns the number of files (tables and temporaries) currently
// registered with the store.
func (s *Store) LiveFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
